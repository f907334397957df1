"""Unit tests for the posting-compression substrate."""

import random

import pytest

from repro.compression.postings import CompressedPostingList
from repro.compression.varbyte import (
    varbyte_decode,
    varbyte_decode_deltas,
    varbyte_encode,
)


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


class TestCompressedPostingList:
    def test_roundtrip(self):
        ids = [0, 1, 5, 100, 101, 1000, 10**6]
        plist = CompressedPostingList(ids, block_size=3)
        assert plist.decode() == ids
        assert len(plist) == len(ids)

    def test_empty(self):
        plist = CompressedPostingList([])
        assert len(plist) == 0
        assert plist.decode() == []
        assert plist.first_geq(5) is None
        assert 3 not in plist

    def test_non_increasing_rejected(self):
        with pytest.raises(ValueError):
            CompressedPostingList([1, 1])
        with pytest.raises(ValueError):
            CompressedPostingList([5, 3])

    def test_block_size_validation(self):
        with pytest.raises(ValueError):
            CompressedPostingList([1], block_size=0)

    def test_contains(self):
        ids = list(range(0, 500, 7))
        plist = CompressedPostingList(ids, block_size=16)
        for probe in range(510):
            assert (probe in plist) == (probe in set(ids))

    def test_first_geq(self):
        ids = [10, 20, 30, 40]
        plist = CompressedPostingList(ids, block_size=2)
        assert plist.first_geq(0) == 10
        assert plist.first_geq(10) == 10
        assert plist.first_geq(11) == 20
        assert plist.first_geq(35) == 40
        assert plist.first_geq(41) is None

    def test_first_geq_block_boundary(self):
        ids = list(range(0, 100, 3))
        plist = CompressedPostingList(ids, block_size=5)
        from bisect import bisect_left

        for probe in range(105):
            position = bisect_left(ids, probe)
            expected = ids[position] if position < len(ids) else None
            assert plist.first_geq(probe) == expected

    def test_compression_saves_space_on_dense_lists(self):
        ids = list(range(10_000))
        plist = CompressedPostingList(ids)
        assert plist.size_in_bytes() < 8 * len(ids) / 3

    def test_roundtrip_random(self):
        rng = random.Random(3)
        for _ in range(20):
            ids = sorted(rng.sample(range(100_000), rng.randint(0, 300)))
            plist = CompressedPostingList(ids, block_size=rng.randint(1, 50))
            assert plist.decode() == ids

