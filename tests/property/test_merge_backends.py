"""Backend-equivalence properties: heap merge vs score accumulator.

The contract the ``merge_backend`` knob promises: candidate sets are
identical pair-for-pair across backends — same entities, bit-identical
weights (both backends sum each entity's contributions in the same
order) — and therefore joins return identical match sets under every
predicate, serially, sharded over workers, and with the bitmap filter
armed.
"""

import math
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CosinePredicate,
    JaccardPredicate,
    OverlapPredicate,
)
from repro.core.accumulator import accumulate_merge, accumulate_merge_opt
from repro.core.heap_merge import heap_merge
from repro.core.join import edit_distance_join, make_algorithm
from repro.core.merge_opt import merge_opt, split_lists
from repro.predicates.base import WEIGHT_EPS, BandFilter, PairThreshold
from repro.utils.counters import CostCounters
from tests.conftest import posting_list, random_dataset

posting_ids = st.lists(
    st.integers(min_value=0, max_value=60), min_size=1, max_size=30, unique=True
).map(sorted)

weights = st.floats(min_value=0.1, max_value=3.0, allow_nan=False)

# Each list is (ids, entry scores, probe score). Besides general weights
# the draws reach both scan paths: all-unit lists under a unit probe
# (the counting scan), unit lists under a non-unit probe, and "trap"
# lists whose max_score is 1.0 while one entry is below it — a list the
# counting scan must not take for unit.
weighted_list = st.tuples(posting_ids, weights, weights).map(
    lambda t: (t[0], [t[1]] * len(t[0]), t[2])
)
unit_list = posting_ids.map(lambda ids: (ids, [1.0] * len(ids), 1.0))
unit_list_weighted_probe = st.tuples(posting_ids, weights).map(
    lambda t: (t[0], [1.0] * len(t[0]), t[1])
)
trap_list = st.tuples(
    posting_ids, st.integers(min_value=0, max_value=29), weights.map(lambda w: w / 4)
).map(
    lambda t: (
        t[0],
        [min(t[2], 0.99) if i == t[1] % len(t[0]) else 1.0 for i in range(len(t[0]))],
        1.0,
    )
)

scored_list = st.one_of(
    weighted_list, unit_list, unit_list_weighted_probe, trap_list
)
probe = st.one_of(
    st.lists(scored_list, min_size=0, max_size=8),
    st.lists(unit_list, min_size=1, max_size=8),
)
thresholds = st.floats(min_value=0.2, max_value=8.0, allow_nan=False)
accepts = st.sampled_from([None, lambda e: e % 3 != 0])
# 0.0 puts every list in S (k == 0); the rest usually leave some in L.
index_thresholds = st.one_of(st.just(0.0), thresholds)

#: Posting ids are drawn from ``range(ENTITIES)``.
ENTITIES = 61
#: A few norms for many entities: the screen's per-norm limit cache
#: both hits and misses within one merge.
NORMS = [1.0, 2.0, 3.5, 5.0, 8.0]
entity_norms = st.lists(st.sampled_from(NORMS), min_size=ENTITIES, max_size=ENTITIES)


def _jaccard_threshold(fraction):
    """Jaccard's ``T(r, s)``: non-decreasing in both norms."""
    return lambda norm_r, norm_s: fraction / (1.0 + fraction) * (norm_r + norm_s)


@st.composite
def plans(draw):
    """``(threshold_of, accept)`` for one probe: plain callables (a
    constant threshold, a modular filter), or what the probe kernel
    builds — a :class:`PairThreshold` over per-entity norms, with or
    without a ``cut``, and with or without a band window, for entities
    that are rids or processing positions (an ``order`` plan)."""
    if draw(st.booleans()):
        threshold = draw(thresholds)
        return (lambda _s: threshold), draw(accepts)
    norms = draw(entity_norms)
    keys = [math.log(norm) for norm in draw(entity_norms)]
    rid = draw(st.integers(min_value=0, max_value=ENTITIES - 1))
    order = draw(st.none() | st.permutations(range(ENTITIES)))
    cut = draw(st.just(0.0) | st.floats(min_value=0.05, max_value=2.0))
    band = None
    if draw(st.booleans()):
        band = BandFilter(keys, draw(st.floats(min_value=0.0, max_value=1.5)))
    if order is not None:
        norms = [norms[sid] for sid in order]
        if band is not None:
            band = band.for_order(order)
    threshold_of = PairThreshold(
        _jaccard_threshold(draw(st.floats(min_value=0.1, max_value=0.9))),
        draw(st.sampled_from(NORMS)),
        norms,
        cut,
    )
    return threshold_of, band.acceptor(rid) if band is not None else None


def build(lists_spec):
    return [
        (posting_list(zip(ids, scores)), probe_score)
        for ids, scores, probe_score in lists_spec
    ]


def _gallop(items, target, start):
    """Doubling search from ``start``: (insertion point, bracket steps)."""
    n = len(items)
    if start >= n or items[start] >= target:
        return min(start, n), 0
    step, lo, hi, steps = 1, start, start + 1, 0
    while hi < n and items[hi] < target:
        lo, step, steps = hi, step << 1, steps + 1
        hi = start + step
    return bisect_left(items, target, lo + 1, min(hi, n)), steps


def reference_counters(lists, index_threshold, threshold_of, accept):
    """The accumulator's counters by the per-posting formulation: accept
    tested per posting, galloping completion searches counted step by
    step. ``index_threshold=None`` means the plain (non-opt) merge."""
    counters = CostCounters()
    k, large, cumulative = 0, [], []
    if index_threshold is not None:
        ordered, cumulative, k = split_lists(lists, index_threshold)
        if k == len(ordered):
            return counters
        large, lists = ordered[:k], ordered[k:]
    weights = {}
    for plist, probe_score in lists:
        counters.accum_scans += len(plist.ids)
        for entity, score in zip(plist.ids, plist.scores):
            if accept is None or accept(entity):
                counters.list_items_touched += 1
                weights[entity] = weights.get(entity, 0.0) + probe_score * score
    counters.accum_writes = counters.candidates_checked = len(weights)
    search_from = [0] * k
    for entity in sorted(weights):
        weight = weights[entity]
        limit = threshold_of(entity) - WEIGHT_EPS
        for i in range(k - 1, -1, -1):
            if weight + cumulative[i] < limit:
                break
            plist, probe_score = large[i]
            counters.binary_searches += 1
            position, steps = _gallop(plist.ids, entity, search_from[i])
            counters.gallop_steps += steps
            search_from[i] = position
            if position < len(plist.ids) and plist.ids[position] == entity:
                weight += probe_score * plist.scores[position]
    return counters


class TestMergeLevelEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(probe, plans())
    def test_accumulate_merge_equals_heap_merge(self, lists_spec, plan):
        lists = build(lists_spec)
        threshold_of, accept = plan
        expected = heap_merge(lists, threshold_of, CostCounters(), accept)
        counters = CostCounters()
        got = accumulate_merge(lists, threshold_of, counters, accept)
        # Pair-for-pair identical, weights bit-identical (same summation
        # order), not merely within epsilon.
        assert got == expected
        assert all(type(weight) is float for _entity, weight in got)
        assert counters == reference_counters(lists, None, threshold_of, accept)

    @settings(max_examples=400, deadline=None)
    @given(probe, index_thresholds, plans())
    def test_accumulate_merge_opt_equals_merge_opt(
        self, lists_spec, index_threshold, plan
    ):
        lists = build(lists_spec)
        threshold_of, accept = plan
        heap_counters = CostCounters()
        expected = merge_opt(lists, index_threshold, threshold_of, heap_counters, accept)
        counters = CostCounters()
        got = accumulate_merge_opt(lists, index_threshold, threshold_of, counters, accept)
        assert got == expected
        assert all(type(weight) is float for _entity, weight in got)
        # Every field — binary_searches, gallop_steps, candidates_checked,
        # list_items_touched, accum_scans, accum_writes — by the
        # per-posting formulas.
        assert counters == reference_counters(
            lists, index_threshold, threshold_of, accept
        )
        # The shared counters mean the same thing on both backends.
        for field in ("list_items_touched", "candidates_checked", "binary_searches"):
            assert getattr(counters, field) == getattr(heap_counters, field)

    @settings(max_examples=200, deadline=None)
    @given(
        posting_ids,
        st.integers(min_value=0, max_value=70),
        st.integers(min_value=0, max_value=35),
    )
    def test_reference_gallop_matches_bisect(self, ids, target, start):
        start = min(start, len(ids))
        position, steps = _gallop(ids, target, start)
        assert position == bisect_left(ids, target, start)
        jump = position - start
        assert steps == ((jump - 1).bit_length() if jump > 1 else 0)


def _join_pairs(dataset, predicate, algorithm, backend, bitmap=None):
    extra = {"memory_fraction": 0.3} if algorithm == "cluster-mem" else {}
    algo = make_algorithm(
        algorithm, merge_backend=backend, bitmap_filter=bitmap, **extra
    )
    return algo.join(dataset, predicate).pair_set()


_PREDICATES = [
    pytest.param(OverlapPredicate(4), id="overlap"),
    pytest.param(JaccardPredicate(0.6), id="jaccard"),
    pytest.param(CosinePredicate(0.7), id="cosine"),
]

_ALGORITHMS = [
    "probe-count-optmerge", "probe-count-sort", "probe-cluster", "cluster-mem"
]


class TestJoinLevelEquivalence:
    @pytest.mark.parametrize("predicate", _PREDICATES)
    @pytest.mark.parametrize("algorithm", _ALGORITHMS)
    def test_serial_backends_agree(self, predicate, algorithm):
        data = random_dataset(seed=17, n_base=80, universe=30)
        heap = _join_pairs(data, predicate, algorithm, "heap")
        accumulator = _join_pairs(data, predicate, algorithm, "accumulator")
        auto = _join_pairs(data, predicate, algorithm, "auto")
        assert accumulator == heap
        assert auto == heap

    @pytest.mark.parametrize("predicate", _PREDICATES)
    def test_bitmap_filter_backends_agree(self, predicate):
        data = random_dataset(seed=23, n_base=80, universe=30)
        heap = _join_pairs(data, predicate, "probe-count-sort", "heap", bitmap=True)
        accumulator = _join_pairs(
            data, predicate, "probe-count-sort", "accumulator", bitmap=True
        )
        unfiltered = _join_pairs(data, predicate, "probe-count-sort", "heap")
        assert accumulator == heap == unfiltered

    @pytest.mark.parametrize("backend", ["heap", "accumulator", "auto"])
    def test_sharded_matches_serial(self, backend):
        from repro.parallel import parallel_join

        data = random_dataset(seed=31, n_base=90, universe=30)
        predicate = JaccardPredicate(0.6)
        serial = _join_pairs(data, predicate, "probe-count-sort", backend)
        sharded = parallel_join(
            data,
            predicate,
            algorithm="probe-count-sort",
            workers=4,
            merge_backend=backend,
        ).pair_set()
        assert sharded == serial

    @pytest.mark.parametrize("backend", ["heap", "accumulator"])
    def test_edit_distance_backends_agree(self, backend):
        names = [
            "similarity", "similarty", "simliarity", "distance", "distence",
            "merge", "marge", "merged", "accumulator", "acumulator",
            "posting", "postings", "columnar", "columner", "threshold",
        ]
        heap = edit_distance_join(names, k=2, merge_backend="heap").pair_set()
        got = edit_distance_join(names, k=2, merge_backend=backend).pair_set()
        assert got == heap
