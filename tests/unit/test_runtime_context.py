"""JoinContext: deadlines, cancellation, memory budgets, degradation.

The satellite requirement "deadline/cancel tests for every algorithm in
ALGORITHMS" lives here: every registered algorithm must observe the
context at record granularity.
"""

import pytest

from repro import (
    ALGORITHMS,
    CancellationToken,
    JoinCancelled,
    JoinContext,
    JoinTimeout,
    MemoryBudget,
    MemoryBudgetExceeded,
    OverlapPredicate,
    make_algorithm,
    similarity_join,
)
from repro.runtime.faults import CountdownCancellation, FakeClock
from tests.conftest import random_dataset

ALL_ALGORITHMS = sorted(ALGORITHMS)


def _make(name):
    if name == "cluster-mem":
        return make_algorithm(name, budget=MemoryBudget(64))
    return make_algorithm(name)


class TestCancellationToken:
    def test_starts_active(self):
        token = CancellationToken()
        assert not token.cancelled

    def test_cancel_latches_with_reason(self):
        token = CancellationToken()
        token.cancel("operator said so")
        assert token.cancelled
        assert token.reason == "operator said so"
        assert "operator said so" in repr(token)

    def test_countdown_trips_at_exact_check(self):
        token = CountdownCancellation(after_checks=3)
        assert not token.cancelled
        assert not token.cancelled
        assert token.cancelled  # third observation
        assert token.cancelled  # stays cancelled


class TestContextValidation:
    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(ValueError):
            JoinContext(deadline_seconds=0)

    def test_rejects_empty_budget(self):
        with pytest.raises(ValueError):
            JoinContext(memory_budget_entries=0)

    def test_rejects_unknown_memory_policy(self):
        with pytest.raises(ValueError):
            JoinContext(memory_budget_entries=10, on_memory_exceeded="explode")


class TestCancelEveryAlgorithm:
    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_precancelled_token_stops_join(self, name):
        data = random_dataset(seed=31, n_base=25)
        token = CancellationToken()
        token.cancel("test kill")
        context = JoinContext(cancel_token=token)
        with pytest.raises(JoinCancelled, match="test kill"):
            _make(name).join(data, OverlapPredicate(3), context=context)

    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_mid_run_cancel_stops_join(self, name):
        data = random_dataset(seed=32, n_base=25)
        context = JoinContext(cancel_token=CountdownCancellation(after_checks=10))
        with pytest.raises(JoinCancelled):
            _make(name).join(data, OverlapPredicate(3), context=context)


class TestDeadlineEveryAlgorithm:
    @pytest.mark.parametrize("name", ALL_ALGORITHMS)
    def test_fake_clock_deadline_expires(self, name):
        data = random_dataset(seed=33, n_base=25)
        # Every clock read advances 1s; the deadline anchors at join
        # start, so the 5th record-granularity check must time out.
        clock = FakeClock(auto_advance=1.0)
        context = JoinContext(deadline_seconds=5.0, clock=clock)
        with pytest.raises(JoinTimeout) as err:
            _make(name).join(data, OverlapPredicate(3), context=context)
        assert err.value.elapsed >= err.value.deadline == 5.0

    def test_generous_deadline_does_not_fire(self):
        data = random_dataset(seed=34, n_base=20)
        context = JoinContext(deadline_seconds=3600.0)
        result = similarity_join(data, OverlapPredicate(3), context=context)
        truth = similarity_join(data, OverlapPredicate(3), algorithm="naive")
        assert result.pair_set() == truth.pair_set()
        assert result.counters.records_scanned > 0


class TestMemoryBudget:
    def test_strict_mode_raises(self):
        data = random_dataset(seed=35, n_base=30)
        context = JoinContext(memory_budget_entries=20, on_memory_exceeded="raise")
        with pytest.raises(MemoryBudgetExceeded) as err:
            similarity_join(
                data, OverlapPredicate(3), algorithm="probe-count", context=context
            )
        assert err.value.entries > err.value.budget == 20

    @pytest.mark.parametrize(
        "name", ["probe-count", "probe-count-online", "probe-cluster", "pair-count"]
    )
    def test_degrades_to_cluster_mem_and_stays_exact(self, name):
        data = random_dataset(seed=36, n_base=30)
        predicate = OverlapPredicate(3)
        truth = similarity_join(data, predicate, algorithm="naive")
        context = JoinContext(memory_budget_entries=20)
        result = similarity_join(data, predicate, algorithm=name, context=context)
        assert result.degraded
        assert result.degraded_from == _make(name).name
        assert "budget" in result.degradation_reason
        assert result.algorithm == _make(name).name  # requested name kept
        assert result.pair_set() == truth.pair_set()
        assert result.counters.extra.get("degradations") == 1

    def test_degraded_fallback_keeps_merge_backend(self):
        # Lists long enough that the fallback's default "auto" backend
        # would pick the accumulator.
        data = random_dataset(seed=36, n_base=120, universe=15)
        context = JoinContext(memory_budget_entries=60)
        algorithm = make_algorithm("probe-count", merge_backend="heap")
        result = algorithm.join(data, OverlapPredicate(3), context=context)
        assert result.degraded
        assert result.counters.heap_pushes > 0
        assert result.counters.accum_scans == 0

    def test_cluster_mem_is_exempt_from_the_runtime_check(self):
        # ClusterMem honours the budget structurally; its cumulative
        # insert counters must not trip the runtime check.
        data = random_dataset(seed=37, n_base=30)
        predicate = OverlapPredicate(3)
        truth = similarity_join(data, predicate, algorithm="naive")
        context = JoinContext(memory_budget_entries=20, on_memory_exceeded="raise")
        algorithm = _make("cluster-mem")
        result = algorithm.join(data, predicate, context=context)
        assert not result.degraded
        assert result.pair_set() == truth.pair_set()

    def test_check_entries_is_the_budget_rule(self):
        context = JoinContext(memory_budget_entries=20)
        context.check_entries(20)
        with pytest.raises(MemoryBudgetExceeded) as err:
            context.check_entries(21)
        assert (err.value.entries, err.value.budget) == (21, 20)
        JoinContext().check_entries(10**9)  # no budget, no check

    def test_large_budget_never_trips(self):
        data = random_dataset(seed=38, n_base=20)
        context = JoinContext(memory_budget_entries=10**9)
        result = similarity_join(data, OverlapPredicate(3), context=context)
        assert not result.degraded


class TestContextAccounting:
    def test_records_scanned_counted(self):
        data = random_dataset(seed=39, n_base=20)
        context = JoinContext()
        result = similarity_join(
            data, OverlapPredicate(3), algorithm="probe-cluster", context=context
        )
        assert result.counters.records_scanned == len(data)

    def test_elapsed_and_remaining(self):
        clock = FakeClock()
        context = JoinContext(deadline_seconds=10.0, clock=clock)
        assert context.elapsed() == 0.0
        context.start()
        clock.advance(4.0)
        assert context.elapsed() == pytest.approx(4.0)
        assert context.remaining() == pytest.approx(6.0)

    def test_join_between_observes_context(self):
        from repro import Dataset

        left = Dataset([(1, 2, 3), (4, 5, 6)])
        right = Dataset([(1, 2, 3), (7, 8, 9)])
        token = CancellationToken()
        token.cancel()
        context = JoinContext(cancel_token=token)
        with pytest.raises(JoinCancelled):
            _make("probe-count").join_between(
                left, right, OverlapPredicate(3), context=context
            )
