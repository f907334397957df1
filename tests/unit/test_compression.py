"""Unit tests for the posting-compression substrate."""

import random
from bisect import bisect_left

import pytest

from repro.compression.varbyte import (
    varbyte_decode,
    varbyte_decode_deltas,
    varbyte_encode,
)
from repro.storage.mmap_index import _BLOCK_SIZE, _encode_blocks
from tests.unit.test_mmap_index import blocked_ids


class TestVarbyte:
    def test_roundtrip_small(self):
        values = [0, 1, 127, 128, 129, 16383, 16384, 2**31]
        assert varbyte_decode(varbyte_encode(values)) == values

    def test_empty(self):
        assert varbyte_encode([]) == b""
        assert varbyte_decode(b"") == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            varbyte_encode([-1])

    def test_truncated_stream_rejected(self):
        data = varbyte_encode([300])
        with pytest.raises(ValueError):
            varbyte_decode(data[:-1])

    def test_count_limited_decode(self):
        data = varbyte_encode([5, 6, 7])
        assert varbyte_decode(data, count=2) == [5, 6]

    def test_small_values_one_byte(self):
        assert len(varbyte_encode([0, 1, 100, 127])) == 4

    def test_decode_deltas(self):
        gaps = [0, 3, 1, 10]
        data = varbyte_encode(gaps)
        assert varbyte_decode_deltas(data, 0, 4, base=100) == [100, 103, 104, 114]

    def test_roundtrip_random(self):
        rng = random.Random(1)
        values = [rng.randrange(0, 1 << 40) for _ in range(500)]
        assert varbyte_decode(varbyte_encode(values)) == values


class TestBlockedIds:
    """Round trips through the mapped index's skip-block encoder and its
    lazy block decoder."""

    def test_roundtrip(self):
        ids = [0, 1, 5, 100, 101, 1000, 10**6]
        column = blocked_ids(ids)
        assert list(column) == ids
        assert len(column) == len(ids)

    def test_empty(self):
        column = blocked_ids([])
        assert len(column) == 0
        assert list(column) == []
        assert column.bisect_from(5) == 0
        assert 3 not in column

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            blocked_ids([1, 1])
        with pytest.raises(ValueError):
            blocked_ids([5, 3])

    def test_contains(self):
        ids = list(range(0, 500, 7))
        column = blocked_ids(ids)
        for probe in range(510):
            assert (probe in column) == (probe in set(ids))

    def test_compression_saves_space_on_dense_lists(self):
        ids = list(range(10_000))
        firsts, offsets, payload = _encode_blocks(ids)
        # Payload plus the skip directory (two int64 columns).
        assert len(payload) + 16 * len(firsts) < 8 * len(ids) / 3

    def test_roundtrip_random(self):
        rng = random.Random(3)
        for _ in range(20):
            ids = sorted(rng.sample(range(100_000), rng.randint(0, 300)))
            column = blocked_ids(ids)
            assert list(column) == ids
            assert [column[i] for i in range(len(ids))] == ids

    def test_bisect_from(self):
        ids = [10, 20, 30, 40]
        column = blocked_ids(ids)
        assert column.bisect_from(0) == 0
        assert column.bisect_from(10) == 0
        assert column.bisect_from(11) == 1
        assert column.bisect_from(35) == 3
        assert column.bisect_from(41) == 4

    def test_bisect_from_across_block_boundaries(self):
        ids = list(range(0, 3 * _BLOCK_SIZE * 3, 3))
        column = blocked_ids(ids)
        for probe in range(ids[-1] + 3):
            assert column.bisect_from(probe) == bisect_left(ids, probe)

    def test_block_directory_layout(self):
        ids = list(range(5, 5 + 7 * (2 * _BLOCK_SIZE + 9), 7))
        firsts, offsets, payload = _encode_blocks(ids)
        assert list(firsts) == ids[::_BLOCK_SIZE]
        assert offsets[0] == 0
        assert list(offsets) == sorted(set(offsets))
        assert offsets[-1] < len(payload)
        # Each block codes gaps from its own first id, starting with 0.
        for block, start in enumerate(offsets):
            assert varbyte_decode(payload[start : start + 1]) == [0]
            assert firsts[block] == ids[block * _BLOCK_SIZE]

    def test_negative_index(self):
        ids = list(range(0, 2 * _BLOCK_SIZE + 5, 2))
        column = blocked_ids(ids)
        for i in range(1, len(ids) + 1):
            assert column[-i] == ids[-i]

    def test_index_out_of_range(self):
        column = blocked_ids([1, 2, 3])
        with pytest.raises(IndexError):
            column[3]
        with pytest.raises(IndexError):
            column[-4]

    def test_slicing_refused(self):
        with pytest.raises(TypeError, match="slicing"):
            blocked_ids([1, 2, 3])[0:2]
