"""Unit tests for the memory-mapped columnar index (RPMX format).

Covers the writer/reader roundtrip (raw and compressed), every
corruption mode the format promises to catch as
:class:`SnapshotCorrupted` (truncation, bad magic, old format version,
byte-order mismatch, mangled directory, flipped posting and section
bytes), residency accounting against the memory-budget runtime, the
``index_backend`` knob's error surface, and the mapped serving state
behind ``SimilarityIndex.save`` / ``load(mmap=True)``.
"""

import hashlib
import json
import math
import os
from array import array
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CosinePredicate,
    Dataset,
    JaccardPredicate,
    JoinCancelled,
    JoinCheckpointer,
    JoinContext,
    JoinTimeout,
    NaiveJoin,
    OverlapPredicate,
    UnsupportedConfiguration,
    WeightedOverlapPredicate,
)
from repro.core.inverted_index import ScoredInvertedIndex
from repro.core.join import make_algorithm, similarity_join
from repro.core.service import SimilarityIndex
from repro.runtime.errors import ReadOnlyIndex, SnapshotCorrupted
from repro.runtime.faults import CountdownCancellation, FakeClock
from repro.storage.mmap_index import (
    _BLOCK_SIZE,
    MappedIndexWriter,
    MappedInvertedIndex,
    _BlockedIds,
    _encode_blocks,
    map_index,
    mapped_column,
    resolve_index_backend,
)
from repro.utils.counters import CostCounters
from tests.conftest import random_dataset

POSTINGS = {
    3: ([0, 2, 5, 9], [1.0, 0.5, 2.0, 1.5]),
    7: ([1], [3.0]),
    11: ([0, 1, 2, 3, 4, 5, 6, 7, 8, 9], [1.0] * 10),
    # spans multiple compressed blocks
    20: (list(range(0, 400, 3)), [0.25] * 134),
}


def write_index(path, *, compressed=False, sections=(), meta=None):
    writer = MappedIndexWriter(str(path), scored=True, compressed=compressed)
    for token, (ids, scores) in POSTINGS.items():
        writer.add_posting(token, ids, scores)
    for name, blob in sections:
        writer.add_section(name, blob)
    writer.finish(min_norm=1.5, n_entities=10, meta=meta)
    return str(path)


class TestRoundtrip:
    @pytest.mark.parametrize("compressed", [False, True])
    def test_postings_roundtrip(self, tmp_path, compressed):
        path = write_index(tmp_path / "ix.rpmx", compressed=compressed)
        with MappedInvertedIndex.open(path) as index:
            assert index.min_norm == 1.5
            assert index.n_entities == 10
            assert index.n_entries == sum(len(ids) for ids, _ in POSTINGS.values())
            assert len(index) == len(POSTINGS)
            assert 3 in index and 99 not in index
            for token, (ids, scores) in POSTINGS.items():
                plist = index.get(token)
                assert list(plist.ids) == ids
                assert list(plist.scores) == scores
                assert plist.max_score == max(scores)
                assert plist.sealed
                assert len(plist) == len(ids)
            assert index.get(99) is None

    @pytest.mark.parametrize("compressed", [False, True])
    def test_id_column_sequence_surface(self, tmp_path, compressed):
        path = write_index(tmp_path / "ix.rpmx", compressed=compressed)
        with MappedInvertedIndex.open(path) as index:
            ids = index.get(20).ids
            expected = POSTINGS[20][0]
            assert len(ids) == len(expected)
            assert ids[0] == expected[0]
            assert ids[64] == expected[64]  # block-first fast path
            assert ids[65] == expected[65]
            assert ids[-1] == expected[-1]
            assert list(iter(ids)) == expected
            with pytest.raises(IndexError):
                ids[len(expected)]

    def test_probe_lists_contract(self, tmp_path):
        path = write_index(tmp_path / "ix.rpmx")
        with MappedInvertedIndex.open(path) as index:
            lists = index.probe_lists((3, 4, 7), (1.0, 1.0, 0.0))
            # unknown token skipped, zero probe score skipped
            assert [list(plist.ids) for plist, _ in lists] == [[0, 2, 5, 9]]
            assert [score for _, score in lists] == [1.0]

    def test_unit_score_index_synthesizes_scores(self, tmp_path):
        writer = MappedIndexWriter(str(tmp_path / "ix.rpmx"), scored=False)
        writer.add_posting(5, [1, 4, 6])
        writer.finish()
        with MappedInvertedIndex.open(str(tmp_path / "ix.rpmx")) as index:
            plist = index.get(5)
            assert list(plist.scores) == [1.0, 1.0, 1.0]
            assert plist.scores[-1] == 1.0
            assert plist.max_score == plist.min_score == 1.0

    @pytest.mark.parametrize("compressed", [False, True])
    def test_scored_list_claims_no_unit_bound(self, tmp_path, compressed):
        # A score column may hold anything below max_score; only the
        # column-free unit file proves min_score == 1.0.
        path = write_index(tmp_path / "ix.rpmx", compressed=compressed)
        with MappedInvertedIndex.open(path) as index:
            assert index.get(11).max_score == 1.0
            assert index.get(11).min_score == -math.inf

    def test_sections_roundtrip(self, tmp_path):
        path = write_index(
            tmp_path / "ix.rpmx", sections=[("blob", b"hello world")]
        )
        with MappedInvertedIndex.open(path) as index:
            assert index.has_section("blob")
            assert bytes(index.section("blob")) == b"hello world"
            assert not index.has_section("other")
            with pytest.raises(KeyError):
                index.section("other")

    def test_meta_roundtrip(self, tmp_path):
        path = write_index(tmp_path / "ix.rpmx", meta={"kind": "test", "x": 1})
        with MappedInvertedIndex.open(path) as index:
            assert index.meta == {"kind": "test", "x": 1}

    def test_empty_index(self, tmp_path):
        writer = MappedIndexWriter(str(tmp_path / "ix.rpmx"))
        writer.finish()
        with MappedInvertedIndex.open(str(tmp_path / "ix.rpmx")) as index:
            assert len(index) == 0
            assert index.min_norm == math.inf
            assert index.probe_lists((1, 2), (1.0, 1.0)) == []


def blocked_ids(ids):
    """A varbyte skip-block column over ``ids``, as the reader maps it."""
    firsts, offsets, payload = _encode_blocks(ids)
    return _BlockedIds(firsts, offsets, memoryview(payload), len(ids))


class TestBlockedBisect:
    @settings(max_examples=120, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4 * _BLOCK_SIZE)
        .flatmap(
            lambda n: st.lists(
                st.integers(min_value=0, max_value=10_000),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
        .map(sorted),
        st.lists(st.integers(min_value=-5, max_value=10_005), max_size=6),
    )
    def test_bisect_from_matches_bisect_left(self, ids, extra_targets):
        column = blocked_ids(ids)
        firsts = ids[::_BLOCK_SIZE]
        targets = set(extra_targets) | set(firsts)
        targets |= {ids[0] - 1, ids[-1], ids[-1] + 1}
        # Between blocks: just after each block's last id.
        targets |= {ids[i] + 1 for i in range(_BLOCK_SIZE - 1, len(ids), _BLOCK_SIZE)}
        for target in sorted(targets):
            for start in range(len(ids) + 2):
                assert column.bisect_from(target, start) == bisect_left(
                    ids, target, start
                )

    def test_three_block_column(self):
        ids = list(range(0, 6 * _BLOCK_SIZE, 2))
        column = blocked_ids(ids)
        assert column.bisect_from(2 * _BLOCK_SIZE) == _BLOCK_SIZE  # a block first
        assert column.bisect_from(-1) == 0
        assert column.bisect_from(10**9, 5) == len(ids)
        assert column.bisect_from(7, 100) == 100


class TestWriter:
    def test_rejects_unsorted_ids(self, tmp_path):
        writer = MappedIndexWriter(str(tmp_path / "ix.rpmx"))
        with pytest.raises(ValueError, match="strictly increasing"):
            writer.add_posting(1, [3, 2], [1.0, 1.0])
        writer.abort()

    def test_scored_writer_needs_scores(self, tmp_path):
        writer = MappedIndexWriter(str(tmp_path / "ix.rpmx"))
        with pytest.raises(ValueError, match="score column"):
            writer.add_posting(1, [1, 2])
        writer.abort()

    def test_duplicate_section_rejected(self, tmp_path):
        writer = MappedIndexWriter(str(tmp_path / "ix.rpmx"))
        writer.add_section("s", b"x")
        with pytest.raises(ValueError, match="duplicate"):
            writer.add_section("s", b"y")
        writer.abort()

    def test_empty_posting_skipped(self, tmp_path):
        writer = MappedIndexWriter(str(tmp_path / "ix.rpmx"))
        writer.add_posting(1, [], [])
        writer.finish()
        with MappedInvertedIndex.open(str(tmp_path / "ix.rpmx")) as index:
            assert len(index) == 0

    def test_abort_leaves_nothing(self, tmp_path):
        path = tmp_path / "ix.rpmx"
        writer = MappedIndexWriter(str(path))
        writer.add_posting(1, [1], [1.0])
        writer.abort()
        assert list(tmp_path.iterdir()) == []

    def test_context_manager_aborts_on_error(self, tmp_path):
        path = tmp_path / "ix.rpmx"
        with pytest.raises(RuntimeError):
            with MappedIndexWriter(str(path)) as writer:
                writer.add_posting(1, [1], [1.0])
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []

    def test_finish_is_atomic(self, tmp_path):
        # Nothing lands at the final path until finish() completes.
        path = tmp_path / "ix.rpmx"
        writer = MappedIndexWriter(str(path))
        writer.add_posting(1, [1], [1.0])
        assert not path.exists()
        writer.finish()
        assert path.exists()
        assert len(list(tmp_path.iterdir())) == 1  # temp gone


class TestCorruption:
    """Every damage mode raises SnapshotCorrupted — never wrong ids."""

    def test_truncated_below_preamble(self, tmp_path):
        path = tmp_path / "ix.rpmx"
        path.write_bytes(b"RPMX1\n\x02")
        with pytest.raises(SnapshotCorrupted, match="truncated"):
            MappedInvertedIndex.open(str(path))

    def test_truncated_mid_directory(self, tmp_path):
        path = write_index(tmp_path / "ix.rpmx")
        data = open(path, "rb").read()
        open(path, "wb").write(data[: len(data) - 10])
        with pytest.raises(SnapshotCorrupted):
            MappedInvertedIndex.open(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "ix.rpmx"
        path.write_bytes(b"NOPE!\n" + bytes(64))
        with pytest.raises(SnapshotCorrupted, match="bad magic"):
            MappedInvertedIndex.open(str(path))

    def test_old_rpix_version_clear_error(self, tmp_path):
        path = tmp_path / "ix.rpmx"
        path.write_bytes(b"RPIX1\n" + bytes(64))
        with pytest.raises(SnapshotCorrupted, match="version 1"):
            MappedInvertedIndex.open(str(path))

    def test_future_version_rejected(self, tmp_path):
        path = write_index(tmp_path / "ix.rpmx")
        with open(path, "r+b") as handle:
            handle.seek(6)
            handle.write((99).to_bytes(2, "little"))
        with pytest.raises(SnapshotCorrupted, match="version 99"):
            MappedInvertedIndex.open(path)

    def test_byte_order_mismatch(self, tmp_path):
        import sys

        path = write_index(tmp_path / "ix.rpmx")
        with open(path, "r+b") as handle:
            handle.seek(8)
            flags = handle.read(1)[0]
            handle.seek(8)
            handle.write(bytes([flags ^ 4]))  # flip _FLAG_BIG_ENDIAN
        with pytest.raises(SnapshotCorrupted, match="byte-order"):
            MappedInvertedIndex.open(path)
        assert sys.byteorder == "little" or True

    def test_mangled_header_directory_crc(self, tmp_path):
        path = write_index(tmp_path / "ix.rpmx")
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size - 5)  # inside the JSON directory
            byte = handle.read(1)[0]
            handle.seek(size - 5)
            handle.write(bytes([byte ^ 0xFF]))
        with pytest.raises(SnapshotCorrupted, match="checksum"):
            MappedInvertedIndex.open(path)

    def test_directory_bounds_mangled(self, tmp_path):
        path = write_index(tmp_path / "ix.rpmx")
        with open(path, "r+b") as handle:
            handle.seek(16)  # directory offset field
            handle.write((2**40).to_bytes(8, "little"))
        with pytest.raises(SnapshotCorrupted, match="directory"):
            MappedInvertedIndex.open(path)

    @pytest.mark.parametrize("compressed", [False, True])
    def test_flipped_posting_byte_detected_on_probe(self, tmp_path, compressed):
        path = write_index(tmp_path / "ix.rpmx", compressed=compressed)
        # Flip one byte inside the first posting region (starts at 40).
        with open(path, "r+b") as handle:
            handle.seek(44)
            byte = handle.read(1)[0]
            handle.seek(44)
            handle.write(bytes([byte ^ 0x01]))
        index = MappedInvertedIndex.open(path)
        try:
            # Open succeeds (lazy verification); the touch raises.
            with pytest.raises(SnapshotCorrupted, match="posting column"):
                index.get(3)
        finally:
            index.close()

    def test_flipped_section_byte_detected_on_access(self, tmp_path):
        path = write_index(
            tmp_path / "ix.rpmx", sections=[("blob", b"payload-bytes-here")]
        )
        index = MappedInvertedIndex.open(path)
        offset, _length, _crc = index._sections["blob"]
        index.close()
        with open(path, "r+b") as handle:
            handle.seek(offset + 2)
            byte = handle.read(1)[0]
            handle.seek(offset + 2)
            handle.write(bytes([byte ^ 0x10]))
        index = MappedInvertedIndex.open(path)
        try:
            with pytest.raises(SnapshotCorrupted, match="section"):
                index.section("blob")
        finally:
            index.close()

    def test_undamaged_region_still_readable_after_other_region_flagged(
        self, tmp_path
    ):
        path = write_index(tmp_path / "ix.rpmx")
        with open(path, "r+b") as handle:
            handle.seek(44)
            byte = handle.read(1)[0]
            handle.seek(44)
            handle.write(bytes([byte ^ 0x01]))
        index = MappedInvertedIndex.open(path)
        try:
            with pytest.raises(SnapshotCorrupted):
                index.get(3)
            assert list(index.get(7).ids) == POSTINGS[7][0]
        finally:
            index.close()


class TestResidencyAccounting:
    def test_directory_then_first_touch(self, tmp_path):
        path = write_index(tmp_path / "ix.rpmx")
        counters = CostCounters()
        with MappedInvertedIndex.open(path) as index:
            index.attach_counters(counters)
            assert counters.index_entries == len(POSTINGS)
            index.get(3)
            assert counters.index_entries == len(POSTINGS) + 4
            # Second touch adds nothing: residency counts pages, not reads.
            index.get(3)
            assert counters.index_entries == len(POSTINGS) + 4
            index.get(7)
            assert counters.index_entries == len(POSTINGS) + 5
            assert index.touched_entries == 5
            assert index.lists_read == 3
            assert index.resident_bytes() > index.directory_bytes > 0

    def test_memory_budget_sees_touched_postings(self, tmp_path):
        from repro.runtime.context import JoinContext

        data = random_dataset(seed=40)
        # A budget far above directory + touched postings: passes.
        context = JoinContext(memory_budget_entries=100_000)
        result = similarity_join(
            data,
            OverlapPredicate(3),
            algorithm="probe-count-optmerge",
            context=context,
            index_backend="mmap",
        )
        assert result.counters.index_entries > 0
        assert result.counters.index_entries <= 100_000


def built_index(entities) -> ScoredInvertedIndex:
    """A sealed index of ``(entity id, tokens, scores, norm)`` inserts."""
    index = ScoredInvertedIndex()
    for entity in entities:
        index.insert(*entity)
    return index.seal()


def dataset_index(data, bound) -> ScoredInvertedIndex:
    return built_index(
        (rid, data[rid], bound.cached_score_vector(rid), bound.norm(rid))
        for rid in range(len(data))
    )


class TestMapIndex:
    def test_matches_in_memory_index(self):
        data = random_dataset(seed=41)
        memory = dataset_index(data, JaccardPredicate(0.5).bind(data))
        mapped = map_index(memory)
        try:
            assert mapped.min_norm == memory.min_norm
            assert mapped.n_entries == memory.n_entries
            assert mapped.n_entities == memory.n_entities
            assert list(mapped.tokens()) == list(memory.tokens())
            for token in memory.tokens():
                expected = memory.get(token)
                got = mapped.get(token)
                assert list(got.ids) == list(expected.ids)
                assert list(got.scores) == list(expected.scores)
                assert got.max_score == expected.max_score
        finally:
            mapped.dispose()

    @pytest.mark.parametrize("compressed", [False, True])
    def test_score_column_only_when_needed(self, compressed):
        unit = built_index([(0, (1, 2), (1.0, 1.0), 2.0), (1, (2,), (1.0,), 1.0)])
        weighted = built_index(
            [(0, (1, 2), (1.0, 1.0), 2.0), (1, (2,), (0.5,), 0.5)]
        )
        unit_index = map_index(unit, compressed=compressed)
        weighted_index = map_index(weighted, compressed=compressed)
        try:
            assert not unit_index.scored
            assert list(unit_index.get(2).scores) == [1.0, 1.0]
            assert weighted_index.scored
            assert list(weighted_index.get(2).scores) == [1.0, 0.5]
            assert weighted_index.get(2).max_score == 1.0
            assert os.path.getsize(unit_index.path) < os.path.getsize(
                weighted_index.path
            )
        finally:
            unit_index.dispose()
            weighted_index.dispose()

    def test_varbyte_file_smaller_than_raw(self):
        data = random_dataset(seed=49, n_base=100)
        index = dataset_index(data, OverlapPredicate(4).bind(data))
        sizes = {}
        for compressed in (False, True):
            mapped = map_index(index, compressed=compressed)
            sizes[compressed] = os.path.getsize(mapped.path)
            mapped.dispose()
        assert sizes[True] < sizes[False]

    def test_temp_file_removed_on_dispose(self):
        index = map_index(built_index([(0, (1, 2), (1.0, 1.0), 2.0)]))
        path = index.path
        assert os.path.exists(path)
        index.dispose()
        assert not os.path.exists(path)

    def test_dispose_with_live_views_is_safe(self):
        index = map_index(built_index([(0, (1, 2), (1.0, 1.0), 2.0)]))
        plist = index.get(1)
        index.dispose()  # caller still holds a view: must not raise
        assert list(plist.ids) == [0]
        assert not os.path.exists(index.path)

    def test_pinned_path_not_removed(self, tmp_path):
        path = str(tmp_path / "join.rpmx")
        index = map_index(built_index([(0, (1,), (1.0,), 1.0)]), path)
        index.dispose()
        assert os.path.exists(path)

    def test_only_a_pinned_path_is_fsynced_and_renamed(self, tmp_path, monkeypatch):
        # The temp file dies with the join: it is written in place.
        calls = []
        fsync, replace = os.fsync, os.replace
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append("fsync") or fsync(fd))
        monkeypatch.setattr(
            os, "replace", lambda src, dst: calls.append("replace") or replace(src, dst)
        )
        index = built_index([(0, (1, 2), (1.0, 0.5), 2.0), (1, (2,), (1.0,), 1.0)])
        for compressed in (False, True):
            temp = map_index(index, compressed=compressed)
            with open(temp.path, "rb") as handle:
                temp_bytes = handle.read()
            temp.dispose()
            assert calls == []
            path = str(tmp_path / f"join-{compressed}.rpmx")
            map_index(index, path, compressed=compressed).dispose()
            assert calls == ["fsync", "replace"]
            calls.clear()
            with open(path, "rb") as handle:
                assert handle.read() == temp_bytes

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        import tempfile as _tempfile

        def fail(*_args):
            raise RuntimeError("disk full")

        monkeypatch.setattr(_tempfile, "tempdir", str(tmp_path))
        monkeypatch.setattr(MappedIndexWriter, "add_posting", fail)
        index = built_index([(0, (1,), (1.0,), 1.0)])
        with pytest.raises(RuntimeError, match="disk full"):
            map_index(index)
        with pytest.raises(RuntimeError, match="disk full"):
            map_index(index, str(tmp_path / "join.rpmx"))
        assert list(tmp_path.iterdir()) == []


#: sha256 of the mapped join index ``probe-count-optmerge`` writes over
#: ``random_dataset(seed=50)``, per backend and score kind. Recorded
#: before joins built their mapped index through ``ScoredInvertedIndex``;
#: the file format must not drift under refactors of the build path.
#: Little-endian columns: a big-endian build writes other bytes.
JOIN_INDEX_SHA256 = {
    ("mmap", "unit"): "08e109f73470ecc7543d6fde641c28d4e0830f89b5370d0b415b0be07e69e7ef",
    ("mmap", "weighted"): "9ceec16c90c2ecca3c06a44465990d57913e109af44e1f575cce406134735653",
    ("mmap-varbyte", "unit"): "8f78b549261687aba8e80ae867f6dde75f41f7ea49698aea30e6a16462b1b93d",
    ("mmap-varbyte", "weighted"): "228e05f329db805eff6018da1a0e58ff44d9e52c946f25f094f7a3c265d875a8",
}


@pytest.mark.skipif(
    __import__("sys").byteorder != "little", reason="hashes of little-endian files"
)
@pytest.mark.parametrize("backend, scores", sorted(JOIN_INDEX_SHA256))
def test_join_index_bytes_are_stable(tmp_path, backend, scores):
    predicate = {
        "unit": OverlapPredicate(3),
        # sqrt of binary fractions: exact on every IEEE-754 platform.
        "weighted": WeightedOverlapPredicate(
            2.0, weights=lambda token: 0.5 + (token % 4) / 2
        ),
    }[scores]
    path = str(tmp_path / "join.rpmx")
    similarity_join(
        random_dataset(seed=50, n_base=60),
        predicate,
        algorithm="probe-count-optmerge",
        index_backend=backend,
        index_path=path,
    )
    with open(path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    assert digest == JOIN_INDEX_SHA256[backend, scores]


class TestIndexBackendKnob:
    def test_resolve(self):
        assert resolve_index_backend(None) == "memory"
        assert resolve_index_backend("memory") == "memory"
        assert resolve_index_backend("mmap") == "mmap"
        assert resolve_index_backend("mmap-varbyte") == "mmap-varbyte"
        with pytest.raises(ValueError, match="unknown index backend"):
            resolve_index_backend("disk")

    def test_make_algorithm_rejects_bad_backend(self):
        with pytest.raises(ValueError, match="unknown index backend"):
            make_algorithm("probe-count-optmerge", index_backend="nope")

    @pytest.mark.parametrize(
        "algorithm",
        [
            "naive",
            "probe-count-online",
            "probe-count-sort",
            "pair-count",
            "word-groups",
            "probe-cluster",
            "prefix-filter",
            "positional-filter",
        ],
    )
    @pytest.mark.parametrize("backend", ["mmap", "mmap-varbyte"])
    def test_unsupported_algorithms_raise_at_join(self, algorithm, backend):
        data = Dataset([(0, 1), (1, 2)])
        with pytest.raises(
            UnsupportedConfiguration, match="does not support index_backend"
        ):
            make_algorithm(algorithm, index_backend=backend)
        # A directly configured instance is refused by join() itself.
        algo = make_algorithm(algorithm)
        algo.index_backend = backend
        with pytest.raises(
            UnsupportedConfiguration, match="does not support index_backend"
        ):
            algo.join(data, OverlapPredicate(1))

    @pytest.mark.parametrize(
        "predicate",
        [OverlapPredicate(3), JaccardPredicate(0.5)],
        ids=["overlap", "jaccard"],
    )
    def test_join_between_backends_bit_identical(self, predicate):
        # Same seed: the sides share a prefix of records, so the join
        # has matches under both predicates.
        left = random_dataset(seed=44, n_base=30)
        right = random_dataset(seed=44, n_base=40)
        answers = {}
        for backend in ("memory", "mmap", "mmap-varbyte"):
            algo = make_algorithm("probe-count-optmerge", index_backend=backend)
            result = algo.join_between(left, right, predicate)
            answers[backend] = (
                sorted((p.rid_a, p.rid_b, p.similarity) for p in result.pairs),
                result.counters.total_work(),
            )
        assert answers["memory"][0]
        assert answers["mmap"] == answers["memory"]
        assert answers["mmap-varbyte"] == answers["memory"]

    def test_index_path_pins_the_file(self, tmp_path):
        data = random_dataset(seed=42, n_base=20)
        path = str(tmp_path / "probe.rpmx")
        result = similarity_join(
            data,
            OverlapPredicate(3),
            algorithm="probe-count-optmerge",
            index_backend="mmap",
            index_path=path,
        )
        assert os.path.exists(path)
        with MappedInvertedIndex.open(path) as index:
            assert index.n_entities == len(data)
        baseline = similarity_join(data, OverlapPredicate(3))
        assert result.pair_set() == baseline.pair_set()

    def test_temp_index_cleaned_up(self, tmp_path, monkeypatch):
        import tempfile as _tempfile

        monkeypatch.setattr(_tempfile, "tempdir", str(tmp_path))
        data = random_dataset(seed=43, n_base=20)
        similarity_join(
            data,
            OverlapPredicate(3),
            algorithm="probe-count-optmerge",
            index_backend="mmap",
        )
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("backend", ["mmap", "mmap-varbyte"])
class TestMappedJoinRuntime:
    """The mapped backends run through the shared two-pass scan loop
    (``_drive``), so they get its deadline, checkpoint/resume and
    weighted-predicate support."""

    def test_interrupt_then_resume_equals_uninterrupted(self, tmp_path, backend):
        data = random_dataset(seed=46, n_base=40)
        predicate = OverlapPredicate(3)
        truth = make_algorithm("probe-count-optmerge").join(data, predicate)
        directory = str(tmp_path / "ckpt")
        killed = JoinContext(
            # len(data) build ticks, then a few records into the probe scan.
            cancel_token=CountdownCancellation(after_checks=len(data) + 15),
            checkpointer=JoinCheckpointer(directory, interval_records=7),
        )
        algo = make_algorithm("probe-count-optmerge", index_backend=backend)
        with pytest.raises(JoinCancelled):
            algo.join(data, predicate, context=killed)
        assert JoinCheckpointer(directory).load().position >= 0
        resume = JoinContext(checkpointer=JoinCheckpointer(directory))
        resumed = algo.join(data, predicate, context=resume)
        assert sorted(resumed.pairs) == sorted(truth.pairs)
        assert len(resumed.pairs) == len(truth.pairs)

    def test_deadline_raises_typed_error_and_cleans_up(
        self, tmp_path, monkeypatch, backend
    ):
        import tempfile as _tempfile

        monkeypatch.setattr(_tempfile, "tempdir", str(tmp_path))
        data = random_dataset(seed=47, n_base=40)
        context = JoinContext(
            # One clock read per tick: expires inside the probe scan.
            deadline_seconds=float(len(data) + 10),
            clock=FakeClock(auto_advance=1.0),
        )
        algo = make_algorithm("probe-count-optmerge", index_backend=backend)
        with pytest.raises(JoinTimeout):
            algo.join(data, OverlapPredicate(3), context=context)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "predicate",
        [
            WeightedOverlapPredicate(
                2.0, weights=lambda token: 0.5 + (token % 4) / 2
            ),
            CosinePredicate(0.7),
        ],
        ids=["weighted-overlap", "cosine"],
    )
    def test_weighted_predicates_equal_naive(self, predicate, backend):
        data = random_dataset(seed=48, n_base=50)
        truth = NaiveJoin().join(data, predicate)
        result = make_algorithm(
            "probe-count-optmerge", index_backend=backend
        ).join(data, predicate)
        assert truth.pairs
        assert sorted(result.pairs) == sorted(truth.pairs)


class TestMappedViews:
    @staticmethod
    def records(index):
        return mapped_column(
            index, "records_tokens", "records_offsets", tuple, int64=True
        )

    def test_record_view_offset_mismatch(self, tmp_path):
        writer = MappedIndexWriter(str(tmp_path / "ix.rpmx"))
        writer.add_section("records_tokens", array("q", [1, 2, 3]).tobytes())
        writer.add_section("records_offsets", array("q", [0, 2]).tobytes())
        writer.finish()
        with MappedInvertedIndex.open(str(tmp_path / "ix.rpmx")) as index:
            with pytest.raises(SnapshotCorrupted, match="records_offsets"):
                self.records(index)

    def test_blob_view_offset_mismatch(self, tmp_path):
        writer = MappedIndexWriter(str(tmp_path / "ix.rpmx"))
        writer.add_section("payloads", b"abcdef")
        writer.add_section("payload_offsets", array("q", [0, 99]).tobytes())
        writer.finish()
        with MappedInvertedIndex.open(str(tmp_path / "ix.rpmx")) as index:
            with pytest.raises(SnapshotCorrupted, match="payload_offsets"):
                mapped_column(index, "payloads", "payload_offsets", bytes)

    def test_non_int64_offsets_column(self, tmp_path):
        writer = MappedIndexWriter(str(tmp_path / "ix.rpmx"))
        writer.add_section("records_tokens", b"xyz")  # not a multiple of 8
        writer.add_section("records_offsets", array("q", [0, 0]).tobytes())
        writer.finish()
        with MappedInvertedIndex.open(str(tmp_path / "ix.rpmx")) as index:
            with pytest.raises(SnapshotCorrupted, match="int64"):
                self.records(index)

    def test_columns_decode_per_record(self, tmp_path):
        writer = MappedIndexWriter(str(tmp_path / "ix.rpmx"))
        writer.add_section("records_tokens", array("q", [1, 2, 3]).tobytes())
        writer.add_section("records_offsets", array("q", [0, 2, 2, 3]).tobytes())
        writer.add_section("payloads", b"abcdef")
        writer.add_section("payload_offsets", array("q", [0, 1, 4, 6]).tobytes())
        writer.finish()
        with MappedInvertedIndex.open(str(tmp_path / "ix.rpmx")) as index:
            records = self.records(index)
            payloads = mapped_column(index, "payloads", "payload_offsets", bytes)
            assert list(records) == [(1, 2), (), (3,)]
            assert records[-1] == (3,) and records[1:] == [(), (3,)]
            assert list(payloads) == [b"a", b"bcd", b"ef"]
            with pytest.raises(IndexError):
                payloads[3]
            with pytest.raises(TypeError, match="read-only"):
                records.append((4,))


class TestMappedService:
    DOCS = [
        "a b c d",
        "a b c e",
        "x y z",
        "a b d e f",
        "c d e",
        "m n o p q",
    ]

    def build(self, **kwargs):
        service = SimilarityIndex(
            JaccardPredicate(0.4), tokenizer=str.split, **kwargs
        )
        for i, doc in enumerate(self.DOCS):
            service.add(doc, payload={"doc": i})
        return service

    @staticmethod
    def answers(service, queries):
        return [
            [(p.rid_a, p.rid_b, p.similarity) for p in service.query(q)]
            for q in queries
        ]

    def test_mmap_load_equals_snapshot_load(self, tmp_path):
        service = self.build()
        mpath = str(tmp_path / "i.rpmx")
        service.save(mpath)
        queries = ["a b c", "c d e f", "zzz", "m n o"]
        predicate = JaccardPredicate(0.4)
        in_memory = SimilarityIndex.load(mpath, predicate, tokenizer=str.split)
        mapped = SimilarityIndex.load(
            mpath, predicate, tokenizer=str.split, mmap=True
        )
        try:
            assert self.answers(mapped, queries) == self.answers(
                in_memory, queries
            )
            assert mapped.payload(3) == {"doc": 3}
            assert mapped.export_records() == in_memory.export_records()
            assert len(mapped) == len(self.DOCS)
        finally:
            mapped.close()

    def test_unit_score_save_has_no_score_column(self, tmp_path):
        mpath = str(tmp_path / "i.rpmx")
        self.build().save(mpath)
        with MappedInvertedIndex.open(mpath) as index:
            assert not index.scored
            assert index.get(0).min_score == index.get(0).max_score == 1.0
        weighted = SimilarityIndex(CosinePredicate(0.4), tokenizer=str.split)
        for doc in self.DOCS:
            weighted.add(doc)
        weighted.save(mpath)
        with MappedInvertedIndex.open(mpath) as index:
            assert index.scored

    #: sha256 of ``build()``'s ``save()`` file as written
    #: while serving files always carried a score column.
    SCORED_LAYOUT_SHA256 = (
        "537f1eadac337f7a9d033167c6bc79ebd2616fba9128eb48188b4fb5a9e89280"
    )

    def test_scored_layout_file_still_answers_like_live_index(self, tmp_path):
        service = self.build()
        unit_path, scored_path = str(tmp_path / "u.rpmx"), str(tmp_path / "s.rpmx")
        service.save(unit_path)
        # The token-list sections earlier versions wrote before "vocab".
        token_lists, token_list_offsets = bytearray(), array("q", [0])
        for tokens, _payload in service.export_records():
            token_lists += json.dumps(tokens, separators=(",", ":")).encode()
            token_list_offsets.append(len(token_lists))
        # Rewrite the unit-score file with an explicit 1.0 score column
        # and those sections: the layout earlier versions wrote for
        # every serving file.
        with MappedInvertedIndex.open(unit_path) as unit:
            with MappedIndexWriter(scored_path, scored=True) as writer:
                for token in unit.tokens():
                    plist = unit.get(token)
                    writer.add_posting(
                        token, array("q", plist.ids), array("d", plist.scores)
                    )
                for name in unit._sections:
                    if name == "vocab":
                        writer.add_section("token_lists", bytes(token_lists))
                        writer.add_section(
                            "token_list_offsets", token_list_offsets.tobytes()
                        )
                    writer.add_section(name, bytes(unit.section(name)))
                writer.finish(
                    min_norm=unit.min_norm,
                    n_entities=unit.n_entities,
                    meta=dict(unit.meta),
                )
        with open(scored_path, "rb") as handle:
            assert hashlib.sha256(handle.read()).hexdigest() == (
                self.SCORED_LAYOUT_SHA256
            )
        queries = ["a b c", "c d e f", "zzz", "m n o", "a b d e"]
        mapped = SimilarityIndex.load(
            scored_path, JaccardPredicate(0.4), tokenizer=str.split, mmap=True
        )
        try:
            assert mapped._index.scored
            assert self.answers(mapped, queries) == self.answers(service, queries)
            assert mapped.export_records() == service.export_records()
        finally:
            mapped.close()

    @staticmethod
    def rewritten(src, dst, **sections):
        """Copy the saved file ``src`` to ``dst`` with the named sections
        replaced, every section CRC-valid."""
        with MappedInvertedIndex.open(src) as unit:
            with MappedIndexWriter(dst, scored=True) as writer:
                for token in unit.tokens():
                    plist = unit.get(token)
                    writer.add_posting(
                        token, array("q", plist.ids), array("d", plist.scores)
                    )
                for name in unit._sections:
                    writer.add_section(
                        name, sections.get(name, bytes(unit.section(name)))
                    )
                writer.finish(
                    min_norm=unit.min_norm,
                    n_entities=unit.n_entities,
                    meta=dict(unit.meta),
                )

    @pytest.mark.parametrize(
        "position, bad_id",
        [(3, "vocab-size"), (0, -1), (1, -1)],
        ids=["past-vocab", "negative", "negative-mid-record"],
    )
    def test_record_id_outside_vocab_is_corrupt(self, tmp_path, position, bad_id):
        service = self.build()
        good, bad = str(tmp_path / "good.rpmx"), str(tmp_path / "bad.rpmx")
        service.save(good)
        # Record 0 ("a b c d") is ids (0, 1, 2, 3); rewrite one of them.
        with MappedInvertedIndex.open(good) as unit:
            records = array("q", bytes(unit.section("records_tokens")))
        assert records[:4] == array("q", [0, 1, 2, 3])
        records[position] = (
            len(service._vocabulary) if bad_id == "vocab-size" else bad_id
        )
        self.rewritten(good, bad, records_tokens=records.tobytes())
        for mmap in (False, True):
            loaded = SimilarityIndex.load(
                bad, JaccardPredicate(0.4), tokenizer=str.split, mmap=mmap
            )
            try:
                with pytest.raises(SnapshotCorrupted, match="no token for id") as err:
                    loaded.export_records()
                assert err.value.path == bad
                assert loaded.export_records(start=1) == service.export_records(1)
            finally:
                loaded.close()

    @pytest.mark.parametrize(
        "entries",
        [
            [b'["json",0]', b'["json",1', b'["json",2]'],
            [b'["json",0]', b'["text",1]', b'["json",2]'],
            [b'["json",0]', b"", b'["json",2]'],
            # A valid stream of entries, but not one per offset.
            [b'["json",0]', b'["json",[1', b",2]]"],
            # Three tagged entries once joined by commas into a list.
            [b'["json",[[0]', b'["json",1]]', b'["json",2],["json",3]'],
        ],
        ids=[
            "invalid-json", "untagged", "empty", "entry-past-its-offset",
            "entries-that-join-into-a-list",
        ],
    )
    def test_malformed_payload_entry_is_corrupt(self, tmp_path, entries):
        service = SimilarityIndex(JaccardPredicate(0.4), tokenizer=str.split)
        for doc in self.DOCS[:3]:
            service.add(doc)
        good, bad = str(tmp_path / "good.rpmx"), str(tmp_path / "bad.rpmx")
        service.save(good)
        offsets = array("q", [0])
        for entry in entries:
            offsets.append(offsets[-1] + len(entry))
        self.rewritten(
            good,
            bad,
            payloads=b"".join(entries),
            payload_offsets=offsets.tobytes(),
        )
        with pytest.raises(SnapshotCorrupted, match="payload"):
            SimilarityIndex.load(bad, JaccardPredicate(0.4))
        mapped = SimilarityIndex.load(bad, JaccardPredicate(0.4), mmap=True)
        try:
            with pytest.raises(SnapshotCorrupted, match="payload"):
                [mapped.payload(rid) for rid in range(len(entries))]
        finally:
            mapped.close()

    def test_utf8_payload_entries_load_both_ways(self, tmp_path):
        # save writes ASCII JSON; raw UTF-8 entries still decode.
        service = SimilarityIndex(JaccardPredicate(0.4), tokenizer=str.split)
        for doc in self.DOCS[:2]:
            service.add(doc)
        good, utf8 = str(tmp_path / "good.rpmx"), str(tmp_path / "utf8.rpmx")
        service.save(good)
        entries = ['["json","café"]'.encode(), '["json","naïve"]'.encode()]
        offsets = array("q", [0, len(entries[0]), len(entries[0]) + len(entries[1])])
        self.rewritten(
            good, utf8, payloads=b"".join(entries), payload_offsets=offsets.tobytes()
        )
        loaded = SimilarityIndex.load(utf8, JaccardPredicate(0.4))
        mapped = SimilarityIndex.load(utf8, JaccardPredicate(0.4), mmap=True)
        try:
            for index in (loaded, mapped):
                assert [index.payload(0), index.payload(1)] == ["café", "naïve"]
        finally:
            mapped.close()

    def test_mapped_service_is_read_only(self, tmp_path):
        service = self.build()
        mpath = str(tmp_path / "i.rpmx")
        service.save(mpath)
        mapped = SimilarityIndex.load(
            mpath, JaccardPredicate(0.4), tokenizer=str.split, mmap=True
        )
        try:
            with pytest.raises(ReadOnlyIndex, match="add"):
                mapped.add("new doc")
            with pytest.raises(ReadOnlyIndex, match="rebind"):
                mapped.rebind()
        finally:
            mapped.close()

    def test_snapshot_written_from_mapped_service(self, tmp_path):
        service = self.build()
        mpath = str(tmp_path / "i.rpmx")
        service.save(mpath)
        mapped = SimilarityIndex.load(
            mpath, JaccardPredicate(0.4), tokenizer=str.split, mmap=True
        )
        try:
            snap = str(tmp_path / "back.snap")
            mapped.save(snap)
            restored = SimilarityIndex.load(
                snap, JaccardPredicate(0.4), tokenizer=str.split
            )
            queries = ["a b c", "c d e"]
            assert self.answers(restored, queries) == self.answers(mapped, queries)
        finally:
            mapped.close()

    @staticmethod
    def _cosine_with_stats():
        from repro.text.tfidf import CorpusStats

        vocabulary: dict[str, int] = {}
        records = [
            tuple(sorted({vocabulary.setdefault(t, len(vocabulary)) for t in doc.split()}))
            for doc in TestMappedService.DOCS
        ]
        return CosinePredicate(0.3, stats=CorpusStats(records)), str.split, None

    @staticmethod
    def _edit_distance():
        from repro import EditDistancePredicate
        from repro.predicates.edit_distance import numbered_qgrams

        return EditDistancePredicate(1), numbered_qgrams, None

    class _SortedCodec:
        def encode(self, payload):
            return ",".join(sorted(payload))

        def decode(self, text):
            return frozenset(text.split(","))

    @pytest.mark.parametrize(
        "case", ["jaccard", "overlap", "cosine-stats", "edit-distance", "codec"]
    )
    def test_both_loads_of_one_file_answer_identically(self, tmp_path, case):
        predicate, tokenizer, codec = {
            "jaccard": lambda: (JaccardPredicate(0.4), str.split, None),
            "overlap": lambda: (OverlapPredicate(2), str.split, None),
            "cosine-stats": self._cosine_with_stats,
            "edit-distance": self._edit_distance,
            "codec": lambda: (JaccardPredicate(0.4), str.split, self._SortedCodec()),
        }[case]()
        if case == "edit-distance":
            items = ["similarity", "similarly", "simularity", "simile", "dissimilar"]
            queries = items + ["similarities", "xyz"]
        else:
            items = self.DOCS
            queries = self.DOCS + ["a b c", "c d e f", "zzz", "m n o"]
        service = SimilarityIndex(predicate, tokenizer=tokenizer)
        for i, item in enumerate(items):
            if case == "edit-distance":
                payload = None  # verification reads the string payload
            else:
                payload = frozenset(item.split()) if codec else {"doc": i}
            service.add(item, payload=payload)
        service.rebind()
        path = str(tmp_path / "i.rpmx")
        service.save(path, codec=codec)
        loaded = SimilarityIndex.load(path, predicate, tokenizer=tokenizer, codec=codec)
        mapped = SimilarityIndex.load(
            path, predicate, tokenizer=tokenizer, codec=codec, mmap=True
        )
        try:
            expected = self.answers(service, queries)
            assert any(expected)
            assert self.answers(loaded, queries) == expected
            assert self.answers(mapped, queries) == expected
            assert loaded._vocabulary == mapped._vocabulary == service._vocabulary
            assert [loaded.payload(rid) for rid in range(len(items))] == [
                mapped.payload(rid) for rid in range(len(items))
            ] == [service.payload(rid) for rid in range(len(items))]
            assert loaded.export_records() == mapped.export_records()
        finally:
            mapped.close()
        assert not os.path.exists(path + ".tmp")

    def test_bitmap_filter_rejected_with_mmap(self, tmp_path):
        service = self.build()
        mpath = str(tmp_path / "i.rpmx")
        service.save(mpath)
        with pytest.raises(ValueError, match="bitmap_filter"):
            SimilarityIndex.load(
                mpath, JaccardPredicate(0.4), mmap=True, bitmap_filter=True
            )

    def test_mmap_load_of_join_index_rejected(self, tmp_path):
        map_index(
            built_index([(0, (1, 2), (1.0, 1.0), 2.0)]), str(tmp_path / "join.rpmx")
        ).close()
        with pytest.raises(SnapshotCorrupted, match="serving state"):
            SimilarityIndex.load(
                str(tmp_path / "join.rpmx"), JaccardPredicate(0.4), mmap=True
            )

    def test_codec_payloads_roundtrip(self, tmp_path):
        class Codec:
            def encode(self, payload):
                return ",".join(sorted(payload))

            def decode(self, text):
                return frozenset(text.split(","))

        from repro.runtime.errors import SnapshotEncodingError

        service = SimilarityIndex(JaccardPredicate(0.4), tokenizer=str.split)
        service.add("a b c", payload=frozenset({"tu", "ple"}))
        mpath = str(tmp_path / "i.rpmx")
        service.save(mpath, codec=Codec())
        mapped = SimilarityIndex.load(
            mpath, JaccardPredicate(0.4), tokenizer=str.split,
            codec=Codec(), mmap=True,
        )
        try:
            assert mapped.payload(0) == frozenset({"tu", "ple"})
        finally:
            mapped.close()
        # Without the codec, the tagged payload raises on access.
        mapped = SimilarityIndex.load(
            mpath, JaccardPredicate(0.4), tokenizer=str.split, mmap=True
        )
        try:
            with pytest.raises(SnapshotEncodingError, match="codec"):
                mapped.payload(0)
        finally:
            mapped.close()

    def test_empty_service_roundtrip(self, tmp_path):
        service = SimilarityIndex(JaccardPredicate(0.4), tokenizer=str.split)
        mpath = str(tmp_path / "empty.rpmx")
        service.save(mpath)
        mapped = SimilarityIndex.load(
            mpath, JaccardPredicate(0.4), tokenizer=str.split, mmap=True
        )
        try:
            assert mapped.query("a b") == []
            assert len(mapped) == 0
        finally:
            mapped.close()

    def test_large_index_opens_fast_with_bounded_residency(self, tmp_path):
        """A multi-hundred-MB mapped index opens in <100ms.

        Open cost is parsing the directory, not the posting columns, so
        we graft ~240MB of synthetic fat postings (token ids far outside
        the vocabulary — never probed) onto a real service save and
        check both the open time and that resident memory stays bounded
        by the directory, not the file.
        """
        import gc
        import resource
        import shutil
        import time

        service = self.build()
        seed_path = str(tmp_path / "seed.rpmx")
        big_path = str(tmp_path / "big.rpmx")
        service.save(seed_path)
        if shutil.disk_usage(str(tmp_path)).free < 2 * 300 * 1024 * 1024:
            pytest.skip("not enough free disk for a 240MB index")

        fat_ids = array("q", range(1_000_000))
        fat_scores = array("d", bytes(8) * 1_000_000)
        for i in range(len(fat_scores)):
            fat_scores[i] = 1.0
        with MappedInvertedIndex.open(seed_path) as seed:
            writer = MappedIndexWriter(big_path, scored=True, compressed=False)
            for token in seed.tokens():
                plist = seed.get(token)
                writer.add_posting(
                    token,
                    array("q", plist.ids),
                    array("d", plist.scores),
                    max_score=plist.max_score,
                )
            for i in range(15):
                writer.add_posting(10**7 + i, fat_ids, fat_scores, max_score=1.0)
            for name in seed._sections:
                writer.add_section(name, bytes(seed.section(name)))
            writer.finish(
                min_norm=seed.min_norm,
                n_entities=seed.n_entities,
                meta=dict(seed.meta),
            )
        del fat_ids, fat_scores
        assert os.path.getsize(big_path) > 200 * 1024 * 1024

        gc.collect()
        rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        open_times = []
        predicate = JaccardPredicate(0.4)
        for _ in range(3):
            start = time.perf_counter()
            mapped = SimilarityIndex.load(
                big_path, predicate, tokenizer=str.split, mmap=True
            )
            open_times.append(time.perf_counter() - start)
            mapped.close()
        assert min(open_times) < 0.1, f"open times: {open_times}"

        mapped = SimilarityIndex.load(
            big_path, predicate, tokenizer=str.split, mmap=True
        )
        try:
            assert [
                (p.rid_a, p.rid_b) for p in mapped.query("a b c")
            ], "grafted index must still answer real queries"
            rss_after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # ru_maxrss is KiB on Linux. Opening and querying a 240MB
            # file must not fault in anything near the posting columns.
            assert (rss_after - rss_before) * 1024 < 64 * 1024 * 1024, (
                f"resident grew by {(rss_after - rss_before) // 1024} MiB"
            )
            assert mapped._index.resident_bytes() < 4 * 1024 * 1024
        finally:
            mapped.close()
        os.remove(big_path)

    def test_flipped_payload_byte_is_typed_error(self, tmp_path):
        service = self.build()
        mpath = str(tmp_path / "i.rpmx")
        service.save(mpath)
        with MappedInvertedIndex.open(mpath) as probe:
            offset, _length, _crc = probe._sections["payloads"]
        with open(mpath, "r+b") as handle:
            handle.seek(offset + 1)
            byte = handle.read(1)[0]
            handle.seek(offset + 1)
            handle.write(bytes([byte ^ 0x20]))
        with pytest.raises(SnapshotCorrupted):
            mapped = SimilarityIndex.load(
                mpath, JaccardPredicate(0.4), tokenizer=str.split, mmap=True
            )
            try:
                mapped.payload(0)
            finally:
                mapped.close()
