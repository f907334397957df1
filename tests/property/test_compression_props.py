"""Hypothesis roundtrips for the compression codecs."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.varbyte import varbyte_decode, varbyte_encode
from tests.unit.test_mmap_index import blocked_ids

non_negative = st.lists(st.integers(min_value=0, max_value=1 << 50), max_size=200)
sorted_ids = st.lists(
    st.integers(min_value=0, max_value=1 << 30), max_size=150, unique=True
).map(sorted)


class TestCodecRoundtrips:
    @settings(max_examples=200, deadline=None)
    @given(non_negative)
    def test_varbyte(self, values):
        assert varbyte_decode(varbyte_encode(values)) == values


class TestBlockedIdsProperties:
    @settings(max_examples=150, deadline=None)
    @given(sorted_ids)
    def test_decode_roundtrip(self, ids):
        column = blocked_ids(ids)
        assert list(column) == ids
        assert len(column) == len(ids)

    @settings(max_examples=150, deadline=None)
    @given(sorted_ids, st.integers(0, 1 << 30))
    def test_contains_matches_set(self, ids, probe):
        assert (probe in blocked_ids(ids)) == (probe in set(ids))

    @settings(max_examples=150, deadline=None)
    @given(sorted_ids, st.randoms(use_true_random=False))
    def test_random_access_matches_list(self, ids, rng):
        column = blocked_ids(ids)
        positions = list(range(len(ids)))
        rng.shuffle(positions)
        assert [column[i] for i in positions] == [ids[i] for i in positions]
