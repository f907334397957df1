"""Hypothesis properties of the prefix-filter stack.

The contract: the full PPJoin+ stack (``positional-filter``), the basic
prefix filter (``prefix-filter``), and the exhaustive ``naive`` join
emit the *same pair set* for every unit-score predicate family, every
threshold, with and without the bitmap prefilter — the stack's three
extra layers (length, position, suffix) are pure pruning, never
selection. A separate seeded matrix pins the serial == ``--workers 4``
identity (real worker processes, so that axis is not hypothesis-driven;
see ``test_parallel_props`` for the rationale).

Hamming runs at ``k = 1`` over nonempty records so the empty-
intersection corner (``|r| + |s| <= k``) — which *no* inverted-index
join can see and :func:`repro.core.join.hamming_join` brute-forces —
stays out of the property's domain.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro import (
    DicePredicate,
    JaccardPredicate,
    NaiveJoin,
    OverlapCoefficientPredicate,
    OverlapPredicate,
    parallel_join,
    similarity_join,
)
from repro.core.positional_filter import PositionalFilterJoin
from repro.core.prefix_filter import PrefixFilterJoin
from repro.core.records import Dataset
from repro.filters import BitmapFilterConfig
from repro.predicates.hamming import HammingPredicate
from tests.conftest import random_dataset

records = st.lists(
    st.lists(st.integers(0, 25), min_size=1, max_size=10, unique=True).map(
        lambda r: tuple(sorted(r))
    ),
    min_size=0,
    max_size=30,
)

#: Unit-score predicate, one strategy per family.
predicates = st.one_of(
    st.integers(min_value=1, max_value=6).map(OverlapPredicate),
    st.floats(min_value=0.2, max_value=1.0).map(JaccardPredicate),
    st.floats(min_value=0.2, max_value=1.0).map(DicePredicate),
    st.floats(min_value=0.2, max_value=1.0).map(OverlapCoefficientPredicate),
    st.just(HammingPredicate(1)),
)

BITMAP = BitmapFilterConfig(width=64, adaptive=False)


def _stack_variants(bitmap):
    out = []
    for factory in (
        PrefixFilterJoin,
        PositionalFilterJoin,
        lambda: PositionalFilterJoin(suffix_filter=False),
    ):
        instance = factory()
        if bitmap:
            instance.bitmap_filter = BITMAP
        out.append(instance)
    return out


class TestStackMatchesNaive:
    @settings(max_examples=80, deadline=None)
    @given(records, predicates, st.booleans())
    def test_stack_equals_prefix_equals_naive(self, recs, predicate, bitmap):
        data = Dataset(recs)
        expected = NaiveJoin().join(data, predicate).pair_set()
        for algorithm in _stack_variants(bitmap):
            got = algorithm.join(data, predicate).pair_set()
            assert got == expected, (algorithm.name, predicate.name, bitmap)

    @settings(max_examples=40, deadline=None)
    @given(records, predicates)
    def test_output_is_canonical_and_duplicate_free(self, recs, predicate):
        result = PositionalFilterJoin().join(Dataset(recs), predicate)
        seen = set()
        for pair in result.pairs:
            assert pair.rid_a < pair.rid_b
            assert (pair.rid_a, pair.rid_b) not in seen
            seen.add((pair.rid_a, pair.rid_b))

    @settings(max_examples=40, deadline=None)
    @given(records, predicates)
    def test_stack_never_checks_more_candidates(self, recs, predicate):
        """Layered pruning is monotone: the stack's candidate count
        never exceeds the basic prefix filter's."""
        data = Dataset(recs)
        basic = PrefixFilterJoin().join(data, predicate)
        stacked = PositionalFilterJoin().join(data, predicate)
        assert (
            stacked.counters.candidates_checked
            <= basic.counters.candidates_checked
        )


PARALLEL_PREDICATES = [
    pytest.param(OverlapPredicate(3), id="overlap"),
    pytest.param(JaccardPredicate(0.5), id="jaccard"),
    pytest.param(DicePredicate(0.6), id="dice"),
    pytest.param(HammingPredicate(1), id="hamming"),
]


class TestStackUnderWorkers:
    """Serial == sharded for both stack algorithms (pair-for-pair)."""

    @pytest.mark.parametrize("algorithm", ["prefix-filter", "positional-filter"])
    @pytest.mark.parametrize("predicate", PARALLEL_PREDICATES)
    @pytest.mark.parametrize("workers", [1, 4])
    def test_workers_match_serial(self, algorithm, predicate, workers):
        data = random_dataset(seed=31, n_base=70, min_size=3)
        serial = similarity_join(data, predicate, algorithm=algorithm)
        sharded = parallel_join(
            data, predicate, algorithm=algorithm, workers=workers
        )
        assert sharded.pair_set() == serial.pair_set()
        similarity = {(p.rid_a, p.rid_b): p.similarity for p in serial.pairs}
        assert {
            (p.rid_a, p.rid_b): p.similarity for p in sharded.pairs
        } == similarity

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bitmap_without_suffix_filter_matches_naive(self, workers):
        # The bitmap-on x suffix-off cell of the cascade, sharded.
        data = random_dataset(seed=32, n_base=70, min_size=3)
        predicate = JaccardPredicate(0.5)
        expected = NaiveJoin().join(data, predicate).pair_set()
        sharded = parallel_join(
            data,
            predicate,
            algorithm="positional-filter",
            workers=workers,
            suffix_filter=False,
            bitmap_filter=BITMAP,
        )
        assert sharded.counters.bitmap_checks > 0
        assert sharded.pair_set() == expected
