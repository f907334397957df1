"""Unit tests for the work counters."""

from dataclasses import fields

import pytest

from repro import JaccardPredicate, OverlapPredicate
from repro.core.join import make_algorithm
from repro.core.records import Dataset
from repro.parallel import PARALLEL_ALGORITHMS
from repro.utils.counters import CostCounters


class TestCostCounters:
    def test_defaults_are_zero(self):
        counters = CostCounters()
        assert counters.heap_pops == 0
        assert counters.pairs_output == 0
        assert counters.extra == {}

    def test_merge_adds_fields(self):
        a = CostCounters(heap_pops=3, pairs_output=1)
        b = CostCounters(heap_pops=4, binary_searches=2)
        a.merge(b)
        assert a.heap_pops == 7
        assert a.binary_searches == 2
        assert a.pairs_output == 1

    def test_merge_takes_max_of_peak(self):
        a = CostCounters(peak_pair_table=10)
        b = CostCounters(peak_pair_table=4)
        a.merge(b)
        assert a.peak_pair_table == 10
        b.merge(a)
        assert b.peak_pair_table == 10

    def test_merge_accumulates_extra(self):
        a = CostCounters(extra={"x": 1})
        b = CostCounters(extra={"x": 2, "y": 5})
        a.merge(b)
        assert a.extra == {"x": 3, "y": 5}

    def test_as_dict_includes_extra(self):
        counters = CostCounters(probes=2, extra={"batches": 3})
        snapshot = counters.as_dict()
        assert snapshot["probes"] == 2
        assert snapshot["batches"] == 3

    def test_total_work_sums_merge_quantities(self):
        counters = CostCounters(
            heap_pops=1, list_items_touched=2, binary_searches=3,
            pairs_generated=4, pairs_verified=5,
        )
        assert counters.total_work() == 15

    def test_merge_covers_every_field(self):
        """Merge must not silently drop a newly added counter field.

        Every numeric field sums, except ``peak_pair_table`` which is a
        high-water mark and takes the max.
        """
        numeric = [f.name for f in fields(CostCounters) if f.name != "extra"]
        a = CostCounters(**{name: i + 1 for i, name in enumerate(numeric)})
        b = CostCounters(**{name: 2 * (i + 1) for i, name in enumerate(numeric)})
        a.merge(b)
        for i, name in enumerate(numeric):
            if name == "peak_pair_table":
                assert getattr(a, name) == 2 * (i + 1), name
            else:
                assert getattr(a, name) == 3 * (i + 1), name


def _shard_counters(algorithm_name, dataset, predicate, n_shards, **options):
    """Run the serial algorithm once per shard and merge counters."""
    merged = CostCounters()
    pairs = []
    for shard in range(n_shards):
        algorithm = make_algorithm(algorithm_name, **options)
        algorithm.set_shard(shard, n_shards)
        result = algorithm.join(dataset, predicate)
        merged.merge(result.counters)
        pairs.extend(result.pairs)
    return merged, pairs


class TestShardCounterAudit:
    """Shard-summed counters must reconcile with one serial run.

    This is the contract ``parallel_join`` relies on when it merges
    worker counters: probe-phase work partitions exactly across the
    shards' owned positions. Index-build work replays per shard, so build-side fields
    are compared with that replay factored in rather than ignored.
    """

    dataset = Dataset(
        [
            tuple(sorted({(7 * i + j * j) % 23 for j in range(3 + i % 5)}))
            for i in range(40)
        ]
    )
    predicate = OverlapPredicate(2)

    def test_naive_shard_sum_equals_serial(self):
        """Naive has no index, so every field reconciles exactly."""
        serial = make_algorithm("naive").join(self.dataset, self.predicate)
        merged, pairs = _shard_counters("naive", self.dataset, self.predicate, 4)
        assert sorted((p.rid_a, p.rid_b) for p in pairs) == sorted(
            serial.pair_set()
        )
        assert merged.as_dict() == serial.counters.as_dict()

    def test_probe_phase_counters_shard_sum_exactly(self):
        """For indexed algorithms the probe-side fields partition."""
        serial = make_algorithm("probe-count-optmerge").join(
            self.dataset, self.predicate
        )
        merged, _pairs = _shard_counters(
            "probe-count-optmerge", self.dataset, self.predicate, 4
        )
        for name in (
            "probes",
            "heap_pops",
            "heap_pushes",
            "list_items_touched",
            "binary_searches",
            "candidates_checked",
            "pairs_verified",
            "pairs_output",
        ):
            assert getattr(merged, name) == getattr(serial.counters, name), name

    # Work done once per worker whatever it owns: index and cluster
    # state, bitmap signatures, stopword selection, the LSH forest.
    BUILD_SIDE = {
        "index_entries",
        "bitmap_signatures_built",
        "stopwords",
        "path_leaves",
        "path_hash_tokens",
    }

    @pytest.mark.parametrize(
        "algorithm",
        # probe-cluster's cluster probe rebuilds cluster state, so it
        # runs on replay too and counts into probe-side fields.
        sorted(PARALLEL_ALGORITHMS - {"probe-cluster"}),
    )
    def test_every_probe_counter_partitions(self, algorithm):
        """Every counter but the build side sums to serial, the bitmap's
        and the filter stack's rejections included."""
        predicate = JaccardPredicate(0.3)
        serial = make_algorithm(algorithm, bitmap_filter=True).join(
            self.dataset, predicate
        )
        assert serial.counters.bitmap_checks > 0
        assert "bitmap_disabled" not in serial.counters.extra
        merged, _pairs = _shard_counters(
            algorithm, self.dataset, predicate, 3, bitmap_filter=True
        )
        expected = serial.counters.as_dict()
        got = merged.as_dict()
        for name in self.BUILD_SIDE:
            expected.pop(name, None)
            got.pop(name, None)
        assert got == expected

    def test_build_counters_replay_per_shard(self):
        """Index inserts replay once per shard — documented, not hidden."""
        serial = make_algorithm("probe-count-optmerge").join(
            self.dataset, self.predicate
        )
        merged, _pairs = _shard_counters(
            "probe-count-optmerge", self.dataset, self.predicate, 4
        )
        assert merged.index_entries == 4 * serial.counters.index_entries
