"""Unit tests for the Jaccard predicate (§5.2.1)."""

import math

import pytest

from repro import Dataset, JaccardPredicate


@pytest.fixture
def data():
    return Dataset([(0, 1, 2, 3), (1, 2, 3, 4), (0, 9), (5,)])


class TestJaccardThreshold:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            JaccardPredicate(0.0)
        with pytest.raises(ValueError):
            JaccardPredicate(1.5)
        JaccardPredicate(1.0)  # boundary allowed

    def test_threshold_formula(self, data):
        bound = JaccardPredicate(0.5).bind(data)
        # T(r, s) = f (|r| + |s|) / (1 + f)
        assert bound.threshold(4.0, 4.0) == pytest.approx(0.5 * 8 / 1.5)

    def test_threshold_is_tight(self, data):
        """Overlap >= T(r, s) iff Jaccard >= f (the rewrite is exact)."""
        f = 0.6
        bound = JaccardPredicate(f).bind(data)
        for size_r in range(1, 8):
            for size_s in range(1, 8):
                for overlap in range(0, min(size_r, size_s) + 1):
                    union = size_r + size_s - overlap
                    jaccard = overlap / union
                    passes_threshold = overlap >= bound.threshold(size_r, size_s) - 1e-9
                    assert passes_threshold == (jaccard >= f - 1e-9), (
                        size_r, size_s, overlap
                    )

    def test_monotone_in_norms(self, data):
        bound = JaccardPredicate(0.7).bind(data)
        assert bound.threshold(3, 5) <= bound.threshold(3, 6)
        assert bound.threshold(3, 5) <= bound.threshold(4, 5)


class TestJaccardVerify(object):
    def test_verify_and_similarity(self, data):
        bound = JaccardPredicate(0.5).bind(data)
        ok, similarity = bound.verify(0, 1)
        assert ok
        assert similarity == pytest.approx(3 / 5)

    def test_verify_rejects_below_fraction(self, data):
        bound = JaccardPredicate(0.7).bind(data)
        ok, _sim = bound.verify(0, 1)
        assert not ok

    def test_identical_records_similarity_one(self):
        data = Dataset([(1, 2), (1, 2)])
        bound = JaccardPredicate(1.0).bind(data)
        ok, similarity = bound.verify(0, 1)
        assert ok and similarity == pytest.approx(1.0)


class TestJaccardFilter:
    def test_band_filter_radius(self, data):
        bound = JaccardPredicate(0.5).bind(data)
        band = bound.band_filter()
        assert band.radius == pytest.approx(math.log(2.0))

    def test_filter_soundness_on_sizes(self, data):
        """The size-ratio filter never rejects a pair with Jaccard >= f."""
        f = 0.5
        bound = JaccardPredicate(f).bind(data)
        band = bound.band_filter()
        # Pair (0, 1): sizes 4 and 4, ratio 1 >= f -> accepted.
        assert band.accepts(0, 1)
        # Pair (0, 3): sizes 4 and 1, ratio 0.25 < f -> may reject; their
        # jaccard is at most 1/4 < f so rejection is sound.
        assert not band.accepts(0, 3)

    def test_acceptor_agrees_with_accepts(self, data):
        band = JaccardPredicate(0.5).bind(data).band_filter()
        order = [3, 1, 0, 2]  # record id at each processing position
        for rid in range(len(data)):
            by_id = band.acceptor(rid)
            by_position = band.for_order(order).acceptor(rid)
            for sid in range(len(data)):
                assert by_id(sid) == band.accepts(rid, sid)
            for pos, sid in enumerate(order):
                assert by_position(pos) == band.accepts(rid, sid)

    def test_weighted_variant_uses_weights(self):
        data = Dataset([(0, 1), (0, 2)])
        bound = JaccardPredicate(0.5, weights={0: 9.0, 1: 1.0, 2: 1.0}).bind(data)
        # weighted overlap = 9, union = 10+10-9 = 11
        ok, similarity = bound.verify(0, 1)
        assert ok
        assert similarity == pytest.approx(9 / 11)
