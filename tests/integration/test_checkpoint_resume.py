"""Acceptance: a join killed mid-run and relaunched with the same
checkpoint directory produces the exact pair set of an uninterrupted
run — for every checkpointable algorithm, including the three the issue
names (probe-count, probe-cluster, cluster-mem)."""

import os

import pytest

from repro import (
    ALGORITHMS,
    JoinCancelled,
    JoinCheckpointer,
    JoinContext,
    JoinTimeout,
    MemoryBudget,
    OverlapPredicate,
    UnsupportedConfiguration,
    make_algorithm,
)
from repro.runtime.errors import CheckpointMismatch
from repro.runtime.faults import CountdownCancellation, FakeClock
from tests.conftest import random_dataset

PREDICATE = OverlapPredicate(3)

#: Algorithms whose pair-emitting scan runs through the shared driver,
#: each with a kill point (token observations, as a function of the
#: record count) landing a few records into that scan: past any
#: index-build ticks (which don't checkpoint), before the scan ends.
RESUMABLE = {
    "naive": lambda n: 15,  # single driven scan
    "probe-count": lambda n: n + 15,  # n build ticks, then driven probes
    "probe-count-optmerge": lambda n: n + 15,
    "probe-count-stopwords": lambda n: n + 15,
    "probe-count-sort": lambda n: 15,  # single driven pass
    "probe-count-online": lambda n: 15,
    "probe-cluster": lambda n: 15,
    "prefix-filter": lambda n: 15,  # single driven pass (probe + insert)
    "positional-filter": lambda n: 15,
    "cluster-mem": lambda n: n + 20,  # n phase-1 ticks, then mid-phase-2
    # The seeded path-forest build ticks once per split group (~2030
    # observations on this pinned corpus under the default plan) before
    # the driven scan starts; the constant lands the kill a few records
    # into the scan. Rebuilding the forest on resume is deterministic
    # (same seed), so replayed positions see identical candidates.
    "approx": lambda n: 2030 + 15,
}


def _make(name):
    if name == "cluster-mem":
        return make_algorithm(name, budget=MemoryBudget(64))
    return make_algorithm(name)


def _data(seed=71):
    return random_dataset(seed=seed, n_base=40)


def _kill_then_resume(name, directory, *, data=None):
    """One interrupted run, then one clean resume; returns the result."""
    data = data if data is not None else _data()
    killed = JoinContext(
        cancel_token=CountdownCancellation(after_checks=RESUMABLE[name](len(data))),
        checkpointer=JoinCheckpointer(directory, interval_records=7),
    )
    with pytest.raises(JoinCancelled):
        _make(name).join(data, PREDICATE, context=killed)
    state = JoinCheckpointer(directory).load()
    assert state is not None and state.position >= 0, (
        f"{name}: no checkpoint flushed before dying"
    )
    resume = JoinContext(
        checkpointer=JoinCheckpointer(directory, interval_records=7)
    )
    return _make(name).join(data, PREDICATE, context=resume)


class TestDeclaredResumable:
    def test_kill_points_cover_the_declared_algorithms(self):
        declared = {name for name, factory in ALGORITHMS.items() if factory().resumable}
        assert set(RESUMABLE) == declared

    @pytest.mark.parametrize(
        "name", sorted(set(ALGORITHMS) - set(RESUMABLE))
    )
    def test_checkpointer_refused_before_any_work(self, tmp_path, name):
        token = CountdownCancellation(after_checks=75)
        context = JoinContext(
            cancel_token=token,
            checkpointer=JoinCheckpointer(str(tmp_path), interval_records=5),
        )
        with pytest.raises(UnsupportedConfiguration, match="checkpoint"):
            _make(name).join(_data(), PREDICATE, context=context)
        assert token.checks == 0
        assert os.listdir(tmp_path) == []


class TestKillAndResume:
    @pytest.mark.parametrize("name", sorted(RESUMABLE))
    def test_resumed_pairs_equal_uninterrupted(self, tmp_path, name):
        data = _data()
        truth = _make(name).join(data, PREDICATE)
        resumed = _kill_then_resume(name, str(tmp_path), data=data)
        assert resumed.pair_set() == truth.pair_set()
        # Replay must not re-emit checkpointed pairs.
        assert len(resumed.pairs) == len(truth.pairs)

    @pytest.mark.parametrize("name", sorted(RESUMABLE))
    def test_checkpoint_cleared_after_success(self, tmp_path, name):
        ckpt = JoinCheckpointer(str(tmp_path))
        _kill_then_resume(name, str(tmp_path))
        assert not os.path.exists(ckpt.path)

    def test_deadline_expiry_is_resumable_too(self, tmp_path):
        data = _data(seed=72)
        truth = _make("probe-count").join(data, PREDICATE)
        killed = JoinContext(
            # One clock read per tick: expires ~10 records into the
            # driven probe scan, past the len(data) index-build ticks.
            deadline_seconds=float(len(data) + 10),
            clock=FakeClock(auto_advance=1.0),
            checkpointer=JoinCheckpointer(str(tmp_path), interval_records=7),
        )
        with pytest.raises(JoinTimeout):
            _make("probe-count").join(data, PREDICATE, context=killed)
        assert JoinCheckpointer(str(tmp_path)).load().position >= 0
        resume = JoinContext(checkpointer=JoinCheckpointer(str(tmp_path)))
        resumed = _make("probe-count").join(data, PREDICATE, context=resume)
        assert resumed.pair_set() == truth.pair_set()

    def test_double_kill_never_loses_ground(self, tmp_path):
        """A second kill that lands inside the replay leaves the first
        checkpoint standing; the third launch still completes exactly."""
        data = _data(seed=73)
        truth = _make("probe-count-online").join(data, PREDICATE)
        first = JoinContext(
            cancel_token=CountdownCancellation(after_checks=20),
            checkpointer=JoinCheckpointer(str(tmp_path), interval_records=7),
        )
        with pytest.raises(JoinCancelled):
            _make("probe-count-online").join(data, PREDICATE, context=first)
        saved = JoinCheckpointer(str(tmp_path)).load().position
        second = JoinContext(
            cancel_token=CountdownCancellation(after_checks=5),
            checkpointer=JoinCheckpointer(str(tmp_path), interval_records=7),
        )
        with pytest.raises(JoinCancelled):
            _make("probe-count-online").join(data, PREDICATE, context=second)
        assert JoinCheckpointer(str(tmp_path)).load().position == saved
        final = JoinContext(checkpointer=JoinCheckpointer(str(tmp_path)))
        resumed = _make("probe-count-online").join(data, PREDICATE, context=final)
        assert resumed.pair_set() == truth.pair_set()

    def test_periodic_checkpoints_written_without_interruption(self, tmp_path):
        data = _data(seed=74)
        ckpt = JoinCheckpointer(str(tmp_path), interval_records=7)
        result = _make("naive").join(
            data, PREDICATE, context=JoinContext(checkpointer=ckpt)
        )
        assert ckpt.writes >= len(data) // 7
        assert result.counters.checkpoint_writes == ckpt.writes
        assert not os.path.exists(ckpt.path)  # cleared on success


class TestResumeRefusals:
    def _interrupted(self, tmp_path, data):
        context = JoinContext(
            cancel_token=CountdownCancellation(after_checks=len(data) + 15),
            checkpointer=JoinCheckpointer(str(tmp_path), interval_records=7),
        )
        with pytest.raises(JoinCancelled):
            _make("probe-count").join(data, PREDICATE, context=context)

    def test_changed_predicate_refused(self, tmp_path):
        data = _data(seed=75)
        self._interrupted(tmp_path, data)
        resume = JoinContext(checkpointer=JoinCheckpointer(str(tmp_path)))
        with pytest.raises(CheckpointMismatch, match="predicate"):
            _make("probe-count").join(data, OverlapPredicate(4), context=resume)

    def test_changed_algorithm_refused(self, tmp_path):
        data = _data(seed=75)
        self._interrupted(tmp_path, data)
        resume = JoinContext(checkpointer=JoinCheckpointer(str(tmp_path)))
        with pytest.raises(CheckpointMismatch, match="algorithm"):
            _make("naive").join(data, PREDICATE, context=resume)

    def test_changed_dataset_refused(self, tmp_path):
        data = _data(seed=75)
        self._interrupted(tmp_path, data)
        resume = JoinContext(checkpointer=JoinCheckpointer(str(tmp_path)))
        with pytest.raises(CheckpointMismatch, match="fingerprint"):
            _make("probe-count").join(_data(seed=76), PREDICATE, context=resume)
