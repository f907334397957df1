"""Unit tests for the parallel sharded join engine (parent side)."""

import pytest

from repro import (
    CosinePredicate,
    OverlapPredicate,
    UnsupportedConfiguration,
    parallel_join,
    similarity_join,
)
from repro.core.join import make_algorithm
from repro.core.records import Dataset
from repro.parallel import PARALLEL_ALGORITHMS, engine
from repro.parallel.worker import shard_algorithm_name
from repro.utils.counters import CostCounters


def small_dataset(n=40):
    return Dataset(
        [
            tuple(sorted({(5 * i + j * j) % 19 for j in range(2 + i % 4)}))
            for i in range(n)
        ]
    )


def _owned(algorithm, n):
    """``(position, replay)`` for every position the driven scan visits."""
    return [
        (position, replay)
        for position, _rid, replay in algorithm._drive(range(n), CostCounters(), [])
    ]


class TestOwnership:
    """Shard ``i`` of ``N`` owns the scan positions ``p % N == i``."""

    def test_owns_round_robin_and_stops_after_last_owned(self):
        algorithm = make_algorithm("naive")
        algorithm.set_shard(1, 3)
        visited = _owned(algorithm, 10)
        assert [p for p, _ in visited] == list(range(8))  # last owned: 7
        assert [p for p, replay in visited if not replay] == [1, 4, 7]

    def test_shards_partition_every_position(self):
        for n in (0, 1, 7, 100, 101):
            for n_shards in (1, 2, 3, 7, 16):
                owned = []
                for shard in range(n_shards):
                    algorithm = make_algorithm("naive")
                    algorithm.set_shard(shard, n_shards)
                    mine = [p for p, replay in _owned(algorithm, n) if not replay]
                    assert all(p % n_shards == shard for p in mine)
                    owned.extend(mine)
                assert sorted(owned) == list(range(n))

    def test_unsized_order_is_scanned_to_its_end(self):
        """A generator has no length to stop at: the tail past the last
        owned position replays, and ownership is unchanged."""
        algorithm = make_algorithm("naive")
        algorithm.set_shard(1, 3)
        visited = [
            (position, replay)
            for position, _rid, replay in algorithm._drive(
                (rid for rid in range(10)), CostCounters(), []
            )
        ]
        assert [p for p, _ in visited] == list(range(10))
        assert [p for p, replay in visited if not replay] == [1, 4, 7]

    def test_unsharded_replays_nothing(self):
        algorithm = make_algorithm("naive")
        algorithm.set_shard(0, 1)
        assert _owned(algorithm, 5) == [(p, False) for p in range(5)]

    @pytest.mark.parametrize("shard, n_shards", [(0, 0), (-1, 2), (2, 2)])
    def test_rejects_bad_geometry(self, shard, n_shards):
        with pytest.raises(ValueError, match="shard"):
            make_algorithm("naive").set_shard(shard, n_shards)

    @pytest.mark.parametrize("algorithm", sorted(PARALLEL_ALGORITHMS))
    def test_probes_balance_across_shards(self, algorithm):
        """Round-robin ownership spreads probes evenly: per-shard probe
        counts differ by at most one, whatever the algorithm."""
        data = small_dataset(43)
        probes = []
        for shard in range(4):
            instance = make_algorithm(algorithm)
            instance.set_shard(shard, 4)
            probes.append(instance.join(data, OverlapPredicate(2)).counters.probes)
        serial = similarity_join(data, OverlapPredicate(2), algorithm=algorithm)
        assert sum(probes) == serial.counters.probes
        assert max(probes) - min(probes) <= 1, probes


class TestValidation:
    def test_rejects_unsupported_registered_algorithm(self):
        """pair-count exists serially but cannot shard; say so clearly."""
        with pytest.raises(ValueError, match="serially"):
            parallel_join(small_dataset(), OverlapPredicate(2), algorithm="pair-count")

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError, match="no-such-join"):
            parallel_join(
                small_dataset(), OverlapPredicate(2), algorithm="no-such-join"
            )

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError, match="workers"):
            parallel_join(small_dataset(), OverlapPredicate(2), workers=0)

    def test_rejects_nonpositive_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            parallel_join(
                small_dataset(), OverlapPredicate(2), workers=2, batch_size=0
            )

    def test_supported_algorithms_are_registered(self):
        from repro.core.join import _SPECS

        assert PARALLEL_ALGORITHMS <= set(_SPECS)


class TestFailsInTheParent:
    """Configuration errors surface typed, not as a worker crash; the
    ones the parent can see fail before any worker starts."""

    @pytest.fixture
    def no_fork(self, monkeypatch):
        def refuse():
            raise AssertionError("parallel_join started workers")

        monkeypatch.setattr(engine, "_mp_context", refuse)

    def test_unsupported_index_backend(self, no_fork):
        with pytest.raises(UnsupportedConfiguration, match="index_backend='mmap'"):
            parallel_join(
                small_dataset(), OverlapPredicate(2), "prefix-filter",
                workers=2, index_backend="mmap",
            )

    def test_unknown_kwarg(self, no_fork):
        with pytest.raises(TypeError, match="bogus"):
            parallel_join(
                small_dataset(), OverlapPredicate(2), "probe-count",
                workers=2, bogus=1,
            )

    def test_unsupported_predicate_relayed_typed(self):
        # Only a bound predicate shows its scores: the worker finds it,
        # the parent re-raises it typed with the worker's message.
        with pytest.raises(UnsupportedConfiguration, match="unit-score"):
            parallel_join(
                small_dataset(), CosinePredicate(0.5), "prefix-filter", workers=2
            )


class TestShardNaming:
    def test_name_encodes_shard_and_count(self):
        assert shard_algorithm_name("probe-count", 2, 7) == "probe-count@shard2%7"


class TestParallelJoin:
    def test_empty_dataset_returns_empty_result(self):
        """An empty dataset clamps to one (never-started) worker."""
        result = parallel_join(Dataset([]), OverlapPredicate(2), workers=3)
        assert result.pairs == []
        assert result.algorithm == "parallel(probe-count-optmerge, workers=1)"
        assert result.counters.extra["parallel_workers"] == 1

    def test_matches_serial_and_orders_pairs(self):
        data = small_dataset()
        predicate = OverlapPredicate(2)
        serial = similarity_join(data, predicate, algorithm="probe-count-optmerge")
        result = parallel_join(
            data, predicate, algorithm="probe-count-optmerge", workers=2
        )
        assert result.pair_set() == serial.pair_set()
        keys = [(p.rid_a, p.rid_b) for p in result.pairs]
        assert keys == sorted(keys)
        similarity = {(p.rid_a, p.rid_b): p.similarity for p in serial.pairs}
        for pair in result.pairs:
            assert pair.similarity == similarity[(pair.rid_a, pair.rid_b)]

    def test_shard_seconds_has_one_entry_per_worker(self):
        result = parallel_join(small_dataset(), OverlapPredicate(2), workers=3)
        shard_seconds = result.extra["shard_seconds"]
        assert len(shard_seconds) == 3
        assert all(seconds > 0 for seconds in shard_seconds)

    def test_workers_clamped_to_record_count(self):
        data = small_dataset(3)
        result = parallel_join(data, OverlapPredicate(1), workers=16)
        assert result.counters.extra["parallel_workers"] == 3

    def test_tiny_batch_size_streams_correctly(self):
        data = small_dataset()
        predicate = OverlapPredicate(2)
        serial = similarity_join(data, predicate, algorithm="probe-count-optmerge")
        result = parallel_join(data, predicate, workers=2, batch_size=1)
        assert result.pair_set() == serial.pair_set()

    def test_probe_counters_match_serial(self):
        data = small_dataset()
        predicate = OverlapPredicate(2)
        serial = similarity_join(data, predicate, algorithm="probe-count-optmerge")
        result = parallel_join(data, predicate, workers=3)
        for name in ("heap_pops", "list_items_touched", "pairs_verified"):
            assert getattr(result.counters, name) == getattr(
                serial.counters, name
            ), name
        assert result.counters.pairs_output == len(result.pairs)
