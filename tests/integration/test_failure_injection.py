"""Failure-injection and robustness tests.

Storage-layer corruption, hostile inputs, and resource-edge behaviour:
a production library must fail loudly and precisely, not silently
return wrong joins.
"""

import os

import pytest

from repro import (
    ConcurrentMutation,
    Dataset,
    JaccardPredicate,
    JoinContext,
    MemoryBudget,
    ClusterMemJoin,
    OverlapPredicate,
    SimilarityIndex,
    SnapshotCorrupted,
    SnapshotEncodingError,
    similarity_join,
)
from repro.partition.pinfo import PartitionEntry, PartitionInfoStore
from repro.runtime.faults import FailingFilesystem, InjectedFault
from repro.storage.record_store import DiskRecordStore
from tests.conftest import random_dataset


class TestCorruptedStorage:
    def test_pinfo_malformed_line(self, tmp_path):
        path = tmp_path / "pinfo.dat"
        path.write_text("1 2 3\nnot numbers at all\n")
        store = PartitionInfoStore.__new__(PartitionInfoStore)
        store.path = str(path)
        store._handle = None
        with pytest.raises(ValueError):
            list(store.scan())

    def test_pinfo_short_line(self, tmp_path):
        with pytest.raises(ValueError):
            PartitionEntry.from_line("1 2")

    def test_record_store_truncated_file(self, tmp_path):
        store = DiskRecordStore.from_records([(1, 2, 3), (4, 5)], str(tmp_path / "r.dat"))
        store.close()
        # Truncate the backing file behind the store's back.
        with open(store.path, "w", encoding="ascii") as handle:
            handle.write("1 2 3\n")
        store._handle = open(store.path, "r", encoding="ascii")
        assert store.fetch(0) == (1, 2, 3)
        # Fetching past the truncation yields an empty record rather
        # than garbage (offset points past EOF).
        assert store.fetch(1) == ()
        store.close()

    def test_record_store_non_numeric_content(self, tmp_path):
        path = tmp_path / "r.dat"
        path.write_text("boom\n")
        store = DiskRecordStore(str(path))
        store._offsets = [0]
        store._handle = open(path, "r", encoding="ascii")
        with pytest.raises(ValueError):
            store.fetch(0)
        store.close()


class TestHostileInputs:
    def test_records_with_empty_sets(self):
        data = Dataset([(), (1, 2, 3), (), (1, 2, 3)])
        result = similarity_join(data, OverlapPredicate(3), algorithm="probe-cluster")
        assert result.pair_set() == {(1, 3)}

    def test_all_empty_records(self):
        data = Dataset([(), (), ()])
        for algorithm in ("probe-count-optmerge", "probe-cluster"):
            result = similarity_join(data, OverlapPredicate(1), algorithm=algorithm)
            assert result.pairs == []

    def test_single_giant_record(self):
        data = Dataset([tuple(range(5000)), (1, 2, 3)])
        result = similarity_join(data, OverlapPredicate(3), algorithm="probe-count-sort")
        assert result.pair_set() == {(0, 1)}

    def test_huge_token_ids(self):
        data = Dataset([(10**15, 10**15 + 1), (10**15, 10**15 + 1)])
        result = similarity_join(data, OverlapPredicate(2), algorithm="probe-cluster")
        assert result.pair_set() == {(0, 1)}

    def test_unicode_text(self):
        from repro import dedupe_texts
        from repro.text.tokenizers import tokenize_qgrams

        texts = ["ज्ञानेश्वर पाटील पुणे", "ज्ञानेश्वर पाटिल पुणे", "mumbai office"]
        groups = dedupe_texts(texts, JaccardPredicate(0.5), tokenize_qgrams)
        assert groups == [[0, 1]]


class TestResourceEdges:
    def test_cluster_mem_minimal_budget(self):
        """Budget of a single word occurrence must still be exact."""
        data = random_dataset(seed=80, n_base=25)
        predicate = OverlapPredicate(4)
        truth = similarity_join(data, predicate, algorithm="naive").pair_set()
        algorithm = ClusterMemJoin(MemoryBudget(1))
        assert algorithm.join(data, predicate).pair_set() == truth

    def test_cluster_mem_budget_larger_than_needed(self):
        data = random_dataset(seed=81, n_base=25)
        predicate = OverlapPredicate(4)
        truth = similarity_join(data, predicate, algorithm="naive").pair_set()
        algorithm = ClusterMemJoin(MemoryBudget(10**9))
        result = algorithm.join(data, predicate)
        assert result.pair_set() == truth
        assert result.counters.extra["batches"] == 1

    def test_duplicate_records_en_masse(self):
        data = Dataset([(1, 2, 3, 4)] * 60)
        result = similarity_join(data, JaccardPredicate(1.0), algorithm="probe-cluster")
        assert len(result.pairs) == 60 * 59 // 2

    def test_memory_budget_degradation_stays_exact(self):
        data = random_dataset(seed=82, n_base=30)
        predicate = OverlapPredicate(3)
        truth = similarity_join(data, predicate, algorithm="naive").pair_set()
        result = similarity_join(
            data, predicate, context=JoinContext(memory_budget_entries=25)
        )
        assert result.degraded
        assert result.pair_set() == truth


def _service(n=8):
    service = SimilarityIndex(OverlapPredicate(2))
    for i in range(n):
        service.add([f"w{i}", f"w{i + 1}", f"w{i + 2}"])
    return service


class TestCrashSafePersistence:
    """Acceptance: a crash during SimilarityIndex.save() never leaves an
    unloadable snapshot."""

    @pytest.mark.parametrize("operation", ["open", "write", "fsync", "replace"])
    @pytest.mark.parametrize("fail_at_call", [1, 2])
    def test_crash_mid_save_keeps_previous_snapshot_loadable(
        self, tmp_path, operation, fail_at_call
    ):
        path = str(tmp_path / "index.snap")
        service = _service()
        service.save(path)
        service.add(["extra", "record", "here"])
        fs = FailingFilesystem(fail_operation=operation, fail_at_call=fail_at_call)
        try:
            service.save(path, fs=fs)
        except InjectedFault:
            pass  # simulated crash; fall through to the load below
        if fail_at_call == 1:
            # The mapped writer opens, writes, fsyncs and renames once
            # each at least: the first call of each always trips.
            assert fs.faults_injected == 1
        # Whether or not the write survived, the snapshot must load.
        loaded = SimilarityIndex.load(path, OverlapPredicate(2))
        assert len(loaded) in (len(service) - 1, len(service))
        assert not os.path.exists(path + ".tmp")

    def test_crash_mid_save_leaves_service_usable(self, tmp_path):
        path = str(tmp_path / "index.snap")
        service = _service()
        with pytest.raises(InjectedFault):
            service.save(path, fs=FailingFilesystem(fail_operation="fsync"))
        # The failed save must release the re-entrancy guard.
        service.add(["after", "the", "crash"])
        service.save(path)
        assert len(SimilarityIndex.load(path, OverlapPredicate(2))) == len(service)

    def test_corrupted_snapshot_is_rejected_not_misloaded(self, tmp_path):
        path = str(tmp_path / "index.snap")
        _service().save(path)
        with open(path, "r+b") as handle:
            raw = handle.read()
            assert b"w1" in raw
            handle.seek(0)
            handle.write(raw.replace(b"w1", b"wX", 1))
        with pytest.raises(SnapshotCorrupted):
            SimilarityIndex.load(path, OverlapPredicate(2))

    def test_legacy_plain_json_file_is_rejected(self, tmp_path):
        path = str(tmp_path / "index.json")
        with open(path, "w") as handle:
            handle.write('{"token_lists": [["a"]], "payloads": [["a"]]}')
        with pytest.raises(SnapshotCorrupted):
            SimilarityIndex.load(path, OverlapPredicate(2))


class _ReprCodec:
    """Round-trips the non-JSON payloads used in the tests below."""

    def encode(self, payload) -> str:
        return repr(payload)

    def decode(self, text: str):
        return eval(text)  # noqa: S307 — test-only codec


class TestPayloadEncoding:
    def test_non_json_payload_raises_instead_of_str_coercion(self, tmp_path):
        service = SimilarityIndex(OverlapPredicate(1))
        service.add(["a", "b"], payload={"ok": "json"})
        service.add(["b", "c"], payload={1, 2, 3})  # sets are not JSON
        with pytest.raises(SnapshotEncodingError, match="record 1"):
            service.save(str(tmp_path / "index.snap"))

    def test_codec_round_trips_non_json_payloads(self, tmp_path):
        path = str(tmp_path / "index.snap")
        service = SimilarityIndex(OverlapPredicate(1))
        service.add(["a", "b"], payload={"ok": "json"})
        service.add(["b", "c"], payload={1, 2, 3})
        service.save(path, codec=_ReprCodec())
        loaded = SimilarityIndex.load(path, OverlapPredicate(1), codec=_ReprCodec())
        assert loaded.payload(0) == {"ok": "json"}
        assert loaded.payload(1) == {1, 2, 3}

    def test_codec_snapshot_requires_codec_at_load(self, tmp_path):
        path = str(tmp_path / "index.snap")
        service = SimilarityIndex(OverlapPredicate(1))
        service.add(["a", "b"], payload={1, 2})
        service.save(path, codec=_ReprCodec())
        with pytest.raises(SnapshotEncodingError, match="codec"):
            SimilarityIndex.load(path, OverlapPredicate(1))


class TestReentrancyGuard:
    def test_tokenizer_calling_back_into_the_service_is_refused(self):
        service = SimilarityIndex(
            OverlapPredicate(1), tokenizer=lambda text: _reenter(service, text)
        )
        service.add(["seed", "tokens"])  # list input skips the tokenizer
        with pytest.raises(ConcurrentMutation) as err:
            service.query("probe text")
        assert "query" in str(err.value)

    def test_guard_releases_after_refusal(self):
        service = SimilarityIndex(
            OverlapPredicate(1), tokenizer=lambda text: _reenter(service, text)
        )
        with pytest.raises(ConcurrentMutation):
            service.add("re-entrant add")
        rid = service.add(["plain", "tokens"])  # guard released
        assert rid == 0


def _reenter(service, text):
    service.query(["anything"])
    return text.split()
