"""Hypothesis roundtrips for the compression codecs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.postings import CompressedPostingList
from repro.compression.varbyte import varbyte_decode, varbyte_encode

non_negative = st.lists(st.integers(min_value=0, max_value=1 << 50), max_size=200)
sorted_ids = st.lists(
    st.integers(min_value=0, max_value=1 << 30), max_size=150, unique=True
).map(sorted)


class TestCodecRoundtrips:
    @settings(max_examples=200, deadline=None)
    @given(non_negative)
    def test_varbyte(self, values):
        assert varbyte_decode(varbyte_encode(values)) == values


class TestPostingListProperties:
    @settings(max_examples=150, deadline=None)
    @given(sorted_ids, st.integers(min_value=1, max_value=64))
    def test_decode_roundtrip(self, ids, block_size):
        plist = CompressedPostingList(ids, block_size=block_size)
        assert plist.decode() == ids
        assert len(plist) == len(ids)

    @settings(max_examples=150, deadline=None)
    @given(sorted_ids, st.integers(min_value=1, max_value=64), st.integers(0, 1 << 30))
    def test_contains_matches_set(self, ids, block_size, probe):
        plist = CompressedPostingList(ids, block_size=block_size)
        assert (probe in plist) == (probe in set(ids))

    @settings(max_examples=150, deadline=None)
    @given(sorted_ids, st.integers(min_value=1, max_value=64), st.integers(0, 1 << 30))
    def test_first_geq_matches_bisect(self, ids, block_size, probe):
        from bisect import bisect_left

        plist = CompressedPostingList(ids, block_size=block_size)
        position = bisect_left(ids, probe)
        expected = ids[position] if position < len(ids) else None
        assert plist.first_geq(probe) == expected
