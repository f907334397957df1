"""Hypothesis properties: band filters never reject a true match.

The §5 framework allows filters precisely because they are *sound*:
``filter(r, s)`` failing implies the pair cannot satisfy the predicate.
If this broke, every optimized algorithm would silently drop pairs.

The bitmap-signature classes below hold the same contract for the
:mod:`repro.filters` pruning layer: across predicates, thresholds and
signature widths — and across a :class:`SimilarityIndex` snapshot
save/load — the filtered join must emit exactly the unfiltered pairs.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CosinePredicate,
    Dataset,
    DicePredicate,
    JaccardPredicate,
    OverlapPredicate,
    SimilarityIndex,
    edit_distance_join,
)
from repro.core.naive import NaiveJoin
from repro.filters import BitmapFilterConfig, BitmapPruner
from repro.predicates.edit_distance import EditDistancePredicate, qgram_dataset
from repro.utils.counters import CostCounters

records = st.lists(
    st.lists(st.integers(0, 30), min_size=1, max_size=12, unique=True).map(
        lambda r: tuple(sorted(r))
    ),
    min_size=2,
    max_size=25,
)

fractions = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)


class TestSetFilterSoundness:
    @settings(max_examples=150, deadline=None)
    @given(records, fractions)
    def test_jaccard_filter_sound(self, recs, f):
        data = Dataset(recs)
        bound = JaccardPredicate(f).bind(data)
        band = bound.band_filter()
        for a in range(len(recs)):
            for b in range(a + 1, len(recs)):
                overlap = len(set(recs[a]) & set(recs[b]))
                union = len(set(recs[a]) | set(recs[b]))
                if overlap / union >= f:
                    assert band.accepts(a, b), (recs[a], recs[b], f)

    @settings(max_examples=150, deadline=None)
    @given(records, fractions)
    def test_dice_filter_sound(self, recs, f):
        data = Dataset(recs)
        bound = DicePredicate(f).bind(data)
        band = bound.band_filter()
        for a in range(len(recs)):
            for b in range(a + 1, len(recs)):
                overlap = len(set(recs[a]) & set(recs[b]))
                dice = 2 * overlap / (len(recs[a]) + len(recs[b]))
                if dice >= f:
                    assert band.accepts(a, b)


strings = st.lists(st.text(alphabet="abc", max_size=10), min_size=2, max_size=15)


class TestEditFilterSoundness:
    @settings(max_examples=100, deadline=None)
    @given(strings, st.integers(min_value=0, max_value=3))
    def test_length_filter_sound(self, texts, k):
        from repro.text.editdist import edit_distance

        data = qgram_dataset(texts)
        bound = EditDistancePredicate(k=k).bind(data)
        band = bound.band_filter()
        for a in range(len(texts)):
            for b in range(a + 1, len(texts)):
                if edit_distance(texts[a], texts[b]) <= k:
                    assert band.accepts(a, b)


widths = st.sampled_from([8, 16, 32, 64, 128])

_PREDICATES = [
    lambda f: OverlapPredicate(max(1, round(f * 6))),
    JaccardPredicate,
    CosinePredicate,
    DicePredicate,
]


def _pairs(result):
    return sorted((p.rid_a, p.rid_b) for p in result.pairs)


class TestBitmapFilterSoundness:
    @settings(max_examples=60, deadline=None)
    @given(records, fractions, widths)
    def test_pruner_never_rejects_true_match(self, recs, f, width):
        """Direct check of the popcount bound against brute-force truth."""
        data = Dataset(recs)
        bound = JaccardPredicate(f).bind(data)
        pruner = BitmapPruner.for_join(
            bound, BitmapFilterConfig(width=width, adaptive=False)
        )
        assert pruner is not None
        counters = CostCounters()
        for a in range(len(recs)):
            for b in range(a + 1, len(recs)):
                overlap = len(set(recs[a]) & set(recs[b]))
                union = len(set(recs[a]) | set(recs[b]))
                if overlap / union >= f:
                    threshold = bound.threshold(bound.norm(a), bound.norm(b))
                    entry = pruner.entry_of(bound, a)
                    assert not pruner.rejects(entry, b, threshold, counters), (
                        recs[a], recs[b], f, width,
                    )

    @pytest.mark.parametrize("make_predicate", _PREDICATES)
    @settings(max_examples=40, deadline=None)
    @given(records, fractions, widths)
    def test_filtered_join_identical(self, make_predicate, recs, f, width):
        """NaiveJoin verifies every pair, so equality here covers all
        candidate pairs for any weighting scheme (incl. TF-IDF cosine)."""
        predicate = make_predicate(f)
        plain = NaiveJoin().join(Dataset(list(recs)), predicate)
        filtered_algo = NaiveJoin()
        filtered_algo.bitmap_filter = BitmapFilterConfig(
            width=width, adaptive=False
        )
        filtered = filtered_algo.join(Dataset(list(recs)), predicate)
        assert _pairs(plain) == _pairs(filtered)

    @settings(max_examples=40, deadline=None)
    @given(strings, st.integers(min_value=0, max_value=3), widths)
    def test_edit_distance_join_identical(self, texts, k, width):
        plain = edit_distance_join(texts, k)
        filtered = edit_distance_join(
            texts, k, bitmap_filter=BitmapFilterConfig(width=width, adaptive=False)
        )
        assert _pairs(plain) == _pairs(filtered)

    @settings(max_examples=25, deadline=None)
    @given(records, fractions, widths)
    def test_snapshot_roundtrip_preserves_queries(self, recs, f, width):
        """Filtered index == unfiltered index, before and after save/load."""
        predicate = JaccardPredicate(f)
        config = BitmapFilterConfig(width=width, adaptive=False)
        plain = SimilarityIndex(predicate)
        filtered = SimilarityIndex(predicate, bitmap_filter=config)
        for rec in recs:
            plain.add(list(rec))
            filtered.add(list(rec))
        probes = recs[:5]
        expected = [_match_set(plain.query(list(p))) for p in probes]
        assert [_match_set(filtered.query(list(p))) for p in probes] == expected
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "index.snapshot")
            filtered.save(path)
            restored = SimilarityIndex.load(
                path, predicate, bitmap_filter=config
            )
        assert [_match_set(restored.query(list(p))) for p in probes] == expected


def _match_set(matches):
    return sorted(p.rid_b for p in matches)
