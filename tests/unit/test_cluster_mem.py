"""Unit tests for ClusterMem (§4, Algorithm 2)."""

import pytest

from repro import (
    ClusterMemJoin,
    Dataset,
    JaccardPredicate,
    MemoryBudget,
    NaiveJoin,
    OverlapPredicate,
    make_algorithm,
)
from tests.conftest import random_dataset


class TestMemoryBudget:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            MemoryBudget(0)

    def test_fraction_of_full(self):
        data = Dataset([(0, 1, 2), (3, 4)])
        budget = MemoryBudget.fraction_of_full(data, 0.5)
        assert budget.max_index_entries == 2

    def test_fraction_bounds(self):
        data = Dataset([(0, 1)])
        with pytest.raises(ValueError):
            MemoryBudget.fraction_of_full(data, 0.0)
        with pytest.raises(ValueError):
            MemoryBudget.fraction_of_full(data, 1.5)

    def test_fraction_floor_is_one(self):
        data = Dataset([(0,)])
        assert MemoryBudget.fraction_of_full(data, 0.01).max_index_entries == 1


class TestClusterMem:
    def test_basic_result(self, small_dataset):
        algorithm = ClusterMemJoin(MemoryBudget.fraction_of_full(small_dataset, 1.0))
        result = algorithm.join(small_dataset, OverlapPredicate(5))
        assert result.pair_set() == {(0, 1)}

    @pytest.mark.parametrize("fraction", [1.0, 0.5, 0.25, 0.1, 0.02])
    def test_equivalence_across_budgets(self, fraction):
        data = random_dataset(seed=13)
        predicate = OverlapPredicate(4)
        truth = NaiveJoin().join(data, predicate).pair_set()
        algorithm = ClusterMemJoin(MemoryBudget.fraction_of_full(data, fraction))
        assert algorithm.join(data, predicate).pair_set() == truth

    @pytest.mark.parametrize("sort", [False, True])
    def test_sort_option(self, sort):
        data = random_dataset(seed=14)
        predicate = OverlapPredicate(4)
        truth = NaiveJoin().join(data, predicate).pair_set()
        algorithm = ClusterMemJoin(
            MemoryBudget.fraction_of_full(data, 0.3), sort=sort
        )
        assert algorithm.join(data, predicate).pair_set() == truth

    def test_jaccard_equivalence(self):
        data = random_dataset(seed=15)
        predicate = JaccardPredicate(0.6)
        truth = NaiveJoin().join(data, predicate).pair_set()
        algorithm = ClusterMemJoin(MemoryBudget.fraction_of_full(data, 0.2))
        assert algorithm.join(data, predicate).pair_set() == truth

    def test_smaller_budget_means_more_batches(self):
        data = random_dataset(seed=16, n_base=100)
        predicate = OverlapPredicate(4)
        big = ClusterMemJoin(MemoryBudget.fraction_of_full(data, 1.0)).join(data, predicate)
        small = ClusterMemJoin(MemoryBudget.fraction_of_full(data, 0.05)).join(data, predicate)
        assert small.pair_set() == big.pair_set()
        assert small.counters.extra["batches"] >= big.counters.extra["batches"]

    def test_cluster_budget_recorded(self):
        data = random_dataset(seed=17)
        algorithm = ClusterMemJoin(MemoryBudget.fraction_of_full(data, 0.3))
        result = algorithm.join(data, OverlapPredicate(4))
        assert result.counters.extra["Ng"] >= 1
        assert result.counters.clusters_created <= result.counters.extra["Ng"]

    def test_disk_io_is_counted(self):
        data = random_dataset(seed=18)
        algorithm = ClusterMemJoin(MemoryBudget.fraction_of_full(data, 0.2))
        result = algorithm.join(data, OverlapPredicate(4))
        assert result.counters.disk_appends == len(data)
        assert result.counters.disk_reads >= len(data)

    def test_workdir_cleanup(self, tmp_path):
        data = random_dataset(seed=19, n_base=30)
        workdir = tmp_path / "scratch"
        workdir.mkdir()
        algorithm = ClusterMemJoin(
            MemoryBudget.fraction_of_full(data, 0.5), workdir=str(workdir)
        )
        algorithm.join(data, OverlapPredicate(4))
        # Caller-provided workdir is kept, but the temp files are removed.
        leftover = [p.name for p in workdir.iterdir() if not p.name.startswith(".")]
        assert leftover == []

    def test_empty_dataset(self):
        algorithm = ClusterMemJoin(MemoryBudget(10))
        assert algorithm.join(Dataset([]), OverlapPredicate(1)).pairs == []

    def test_phase1_index_within_budget_order(self):
        """The compressed index stays near the budget (soft bound)."""
        data = random_dataset(seed=20, n_base=120)
        budget = MemoryBudget.fraction_of_full(data, 0.1)
        algorithm = ClusterMemJoin(budget)
        result = algorithm.join(data, OverlapPredicate(4))
        # Soft check: compressed index is far below the full index size.
        assert (
            result.counters.extra["phase1_index_entries"]
            < data.total_word_occurrences()
        )


class TestClusterMemMergeBackend:
    """Phase 2's record-level probes honour ``merge_backend``.

    Phase 1's dynamic-threshold home search (``merge_dynamic``) has no
    accumulator form, so its heap work is present under every backend;
    only the phase-2 share of ``heap_pushes`` moves to the accumulator.
    """

    def _join(self, backend):
        data = random_dataset(seed=41, n_base=80, universe=30)
        algorithm = make_algorithm(
            "cluster-mem", memory_fraction=0.3, merge_backend=backend
        )
        return algorithm.join(data, OverlapPredicate(3))

    def test_backend_counters_and_pairs(self):
        heap = self._join("heap")
        accumulator = self._join("accumulator")
        assert heap.counters.accum_scans == 0
        assert accumulator.counters.accum_scans > 0
        assert accumulator.counters.heap_pushes < heap.counters.heap_pushes
        assert sorted(accumulator.pairs) == sorted(heap.pairs)
