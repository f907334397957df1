"""Unit tests for the PPJoin+ positional/suffix filter stack."""

import hashlib
from dataclasses import asdict

import pytest

from repro import (
    Dataset,
    DicePredicate,
    JaccardPredicate,
    NaiveJoin,
    OverlapCoefficientPredicate,
    OverlapPredicate,
    WeightedOverlapPredicate,
    make_algorithm,
    parallel_join,
    similarity_join,
)
from repro.core.positional_filter import (
    PositionalFilterJoin,
    _suffix_hamming_lb,
)
from repro.datagen import address_all_3grams, citation_all_3grams
from repro.core.prefix_filter import PrefixFilterJoin
from repro.filters import BitmapFilterConfig
from repro.predicates.hamming import HammingPredicate
from tests.conftest import random_dataset


class TestPositionalFilterJoin:
    def test_basic(self, small_dataset):
        result = PositionalFilterJoin().join(small_dataset, OverlapPredicate(5))
        assert result.pair_set() == {(0, 1)}

    def test_registry(self):
        assert isinstance(make_algorithm("positional-filter"), PositionalFilterJoin)

    @pytest.mark.parametrize("seed", [1, 4, 9])
    @pytest.mark.parametrize("t", [2, 4, 6])
    def test_overlap_equivalence(self, seed, t):
        data = random_dataset(seed=seed)
        predicate = OverlapPredicate(t)
        truth = NaiveJoin().join(data, predicate).pair_set()
        assert PositionalFilterJoin().join(data, predicate).pair_set() == truth

    @pytest.mark.parametrize("f", [0.5, 0.7, 0.9])
    def test_jaccard_equivalence(self, f):
        data = random_dataset(seed=12)
        predicate = JaccardPredicate(f)
        truth = NaiveJoin().join(data, predicate).pair_set()
        assert PositionalFilterJoin().join(data, predicate).pair_set() == truth

    def test_dice_equivalence(self):
        data = random_dataset(seed=13)
        predicate = DicePredicate(0.7)
        truth = NaiveJoin().join(data, predicate).pair_set()
        assert PositionalFilterJoin().join(data, predicate).pair_set() == truth

    def test_overlap_coefficient_equivalence(self):
        data = random_dataset(seed=21)
        predicate = OverlapCoefficientPredicate(0.8)
        truth = NaiveJoin().join(data, predicate).pair_set()
        assert PositionalFilterJoin().join(data, predicate).pair_set() == truth

    def test_hamming_equivalence_small_k(self):
        data = random_dataset(seed=14, min_size=3)
        predicate = HammingPredicate(1)
        truth = NaiveJoin().join(data, predicate).pair_set()
        assert PositionalFilterJoin().join(data, predicate).pair_set() == truth

    def test_rejects_weighted(self):
        with pytest.raises(ValueError):
            PositionalFilterJoin().join(
                random_dataset(seed=15), WeightedOverlapPredicate(2.0)
            )

    def test_rejects_negative_suffix_depth(self):
        with pytest.raises(ValueError):
            PositionalFilterJoin(suffix_max_depth=-1)

    def test_empty_dataset(self):
        assert (
            PositionalFilterJoin().join(Dataset([]), OverlapPredicate(1)).pairs == []
        )

    def test_stack_prunes_candidates_below_prefix_filter(self):
        # The whole point: same pairs, strictly fewer candidates reach
        # verification than the basic prefix filter lets through.
        data = random_dataset(seed=16, n_base=150)
        predicate = JaccardPredicate(0.6)
        basic = PrefixFilterJoin().join(data, predicate)
        stacked = PositionalFilterJoin().join(data, predicate)
        assert stacked.pair_set() == basic.pair_set()
        assert (
            stacked.counters.candidates_checked < basic.counters.candidates_checked
        )
        rejected = (
            stacked.counters.candidate_rejections_position
            + stacked.counters.candidate_rejections_suffix
        )
        assert rejected > 0

    def test_rejection_counters_excluded_from_total_work(self):
        data = random_dataset(seed=17)
        counters = (
            PositionalFilterJoin().join(data, JaccardPredicate(0.6)).counters
        )
        work = (
            counters.heap_pops
            + counters.list_items_touched
            + counters.binary_searches
            + counters.pairs_generated
            + counters.pairs_verified
        )
        assert counters.total_work() == work

    def test_suffix_filter_off_is_exact_and_counts_nothing(self):
        data = random_dataset(seed=18, n_base=120)
        predicate = JaccardPredicate(0.6)
        on = PositionalFilterJoin(suffix_filter=True).join(data, predicate)
        off = PositionalFilterJoin(suffix_filter=False).join(data, predicate)
        assert off.pair_set() == on.pair_set()
        assert off.counters.candidate_rejections_suffix == 0
        assert "suffix_recursions" not in off.counters.extra
        # candidates_checked is counted *before* the suffix probe, so
        # the knob must not move it.
        assert off.counters.candidates_checked == on.counters.candidates_checked
        # What the suffix filter rejects, the plain variant must verify.
        assert off.counters.pairs_verified >= on.counters.pairs_verified

    def test_suffix_recursions_recorded(self):
        data = random_dataset(seed=19, n_base=120)
        result = PositionalFilterJoin().join(data, JaccardPredicate(0.6))
        if result.counters.candidate_rejections_suffix:
            assert result.counters.extra["suffix_recursions"] > 0

    def test_bitmap_filter_composes(self):
        data = random_dataset(seed=20, n_base=100)
        predicate = OverlapPredicate(4)
        plain = PositionalFilterJoin().join(data, predicate)
        filtered_join = PositionalFilterJoin()
        filtered_join.bitmap_filter = BitmapFilterConfig(width=64, adaptive=False)
        filtered = filtered_join.join(data, predicate)
        assert filtered.pair_set() == plain.pair_set()
        assert filtered.counters.bitmap_checks > 0

    @pytest.mark.parametrize("predicate", [JaccardPredicate(0.6), OverlapPredicate(4)])
    def test_bitmap_runs_before_suffix_filter(self, predicate):
        # Cascade order band -> bitmap -> suffix -> verify: every bitmap
        # survivor is either a suffix reject or an exact verification.
        data = random_dataset(seed=22, n_base=150)
        plain = PositionalFilterJoin().join(data, predicate)
        filtered_join = PositionalFilterJoin()
        filtered_join.bitmap_filter = BitmapFilterConfig(width=64, adaptive=False)
        filtered = filtered_join.join(data, predicate)
        counters = filtered.counters
        assert filtered.pair_set() == plain.pair_set()
        assert counters.bitmap_checks == counters.candidates_checked
        assert (
            counters.bitmap_checks - counters.bitmap_rejects
            == counters.candidate_rejections_suffix + counters.pairs_verified
        )
        assert counters.extra.get("suffix_recursions", 0) <= (
            plain.counters.extra.get("suffix_recursions", 0)
        )

    def test_unmatchable_records_skipped(self):
        data = Dataset([(0,), (0, 1, 2, 3, 4), (0, 1, 2, 3, 5)])
        result = PositionalFilterJoin().join(data, OverlapPredicate(4))
        assert result.pair_set() == {(1, 2)}


class TestSuffixHammingBound:
    """The divide-and-conquer bound never exceeds the true distance."""

    @staticmethod
    def _true_hamming(x, y):
        return len(set(x) ^ set(y))

    @pytest.mark.parametrize("depth", [0, 1, 2, 5])
    def test_lower_bounds_true_distance(self, depth):
        import random

        rng = random.Random(depth)
        for _ in range(200):
            x = tuple(sorted(rng.sample(range(30), rng.randint(0, 10))))
            y = tuple(sorted(rng.sample(range(30), rng.randint(0, 10))))
            calls = [0]
            bound = _suffix_hamming_lb(
                x, 0, len(x), y, 0, len(y), depth, calls
            )
            assert bound <= self._true_hamming(x, y)
            assert calls[0] >= 1

    def test_exact_on_disjoint_and_identical(self):
        x = (1, 3, 5, 7)
        assert _suffix_hamming_lb(x, 0, 4, x, 0, 4, 8, [0]) == 0
        y = (2, 4, 6, 8)
        assert _suffix_hamming_lb(x, 0, 4, y, 0, 4, 8, [0]) == 8


class TestLastMatch:
    """The suffix layer reads the last prefix match the scan met.

    ``positional-filter`` packs that match's probe position into the
    candidate's overlap entry; neither the first match nor the probe's
    last prefix token will do.
    """

    def test_suffix_layer_decides_on_the_scanned_last_match(self):
        # Jaccard 0.5. Canonical (rarest-first) forms, by rid:
        #   0: (3, 4, 5)   1: (1, 2, 5)   2: (1, 2, 3, 4)   3: (0, 2, 3, 4, 5)
        # Probe 2 rejects candidate 1 in the suffix layer from the last
        # match (1, 1); from the first match (0, 0) it would verify it.
        # Probe 3 keeps candidate 2 from the last match (1, 1), which is
        # not the probe's last prefix token: 3 (position 2) lies past the
        # candidate's index prefix, and taking it from the whole record,
        # (2, 2), would reject the qualifying pair (2, 3).
        data = Dataset([(2, 3, 4), (0, 4, 5), (0, 2, 3, 5), (0, 1, 2, 3, 4)])
        predicate = JaccardPredicate(0.5)
        result = PositionalFilterJoin().join(data, predicate)
        assert result.pair_set() == NaiveJoin().join(data, predicate).pair_set()
        assert result.pair_set() == {(0, 3), (2, 3)}
        counters = result.counters
        assert counters.candidate_rejections_position == 1
        assert counters.candidate_rejections_suffix == 1
        assert counters.pairs_verified == 2
        assert counters.extra == {"suffix_recursions": 13}


_GOLDEN_CORPORA = {
    "address": lambda: address_all_3grams(400, seed=3),
    "citation": lambda: citation_all_3grams(400, seed=3),
}
_GOLDEN_PREDICATES = {
    "jaccard-0.6": JaccardPredicate(0.6),
    "jaccard-0.8": JaccardPredicate(0.8),
    "dice-0.7": DicePredicate(0.7),
    "overlap-5": OverlapPredicate(5),
}
# (corpus, predicate, bitmap on, suffix on) or (corpus, predicate,
# "parallel-2") -> (pair fingerprint, every non-zero counter with
# ``extra`` flattened as ``extra.<key>``). The bitmap runs with its
# default (adaptive) config; the parallel case with it on, 2 workers.
_GOLDEN = {
    ("address", "jaccard-0.6", False, False): (
        "4f4782a85d904f34",
        {
            "probes": 400, "list_items_touched": 15120, "binary_searches": 5134,
            "candidates_checked": 4594, "pairs_verified": 4594, "pairs_output": 41,
            "index_entries": 5276, "candidate_rejections_position": 2302,
        },
    ),
    ("address", "jaccard-0.6", False, True): (
        "4f4782a85d904f34",
        {
            "probes": 400, "list_items_touched": 15120, "binary_searches": 5134,
            "candidates_checked": 4594, "pairs_verified": 1864, "pairs_output": 41,
            "index_entries": 5276, "candidate_rejections_position": 2302,
            "candidate_rejections_suffix": 2730, "extra.suffix_recursions": 32158,
        },
    ),
    ("address", "jaccard-0.6", True, False): (
        "4f4782a85d904f34",
        {
            "probes": 400, "list_items_touched": 15120, "binary_searches": 5134,
            "candidates_checked": 4594, "pairs_verified": 80, "pairs_output": 41,
            "index_entries": 5276, "bitmap_checks": 4594, "bitmap_rejects": 4514,
            "candidate_rejections_position": 2302,
            "extra.bitmap_signatures_built": 400,
        },
    ),
    ("address", "jaccard-0.6", True, True): (
        "4f4782a85d904f34",
        {
            "probes": 400, "list_items_touched": 15120, "binary_searches": 5134,
            "candidates_checked": 4594, "pairs_verified": 62, "pairs_output": 41,
            "index_entries": 5276, "bitmap_checks": 4594, "bitmap_rejects": 4514,
            "candidate_rejections_position": 2302,
            "candidate_rejections_suffix": 18, "extra.bitmap_signatures_built": 400,
            "extra.suffix_recursions": 560,
        },
    ),
    ("address", "jaccard-0.8", False, False): (
        "d8752eb31eb21bd3",
        {
            "probes": 400, "list_items_touched": 2745, "binary_searches": 1773,
            "candidates_checked": 932, "pairs_verified": 932, "pairs_output": 17,
            "index_entries": 2447, "candidate_rejections_position": 1070,
        },
    ),
    ("address", "jaccard-0.8", False, True): (
        "d8752eb31eb21bd3",
        {
            "probes": 400, "list_items_touched": 2745, "binary_searches": 1773,
            "candidates_checked": 932, "pairs_verified": 64, "pairs_output": 17,
            "index_entries": 2447, "candidate_rejections_position": 1070,
            "candidate_rejections_suffix": 868, "extra.suffix_recursions": 6524,
        },
    ),
    ("address", "jaccard-0.8", True, False): (
        "d8752eb31eb21bd3",
        {
            "probes": 400, "list_items_touched": 2745, "binary_searches": 1773,
            "candidates_checked": 932, "pairs_verified": 20, "pairs_output": 17,
            "index_entries": 2447, "bitmap_checks": 932, "bitmap_rejects": 912,
            "candidate_rejections_position": 1070,
            "extra.bitmap_signatures_built": 400,
        },
    ),
    ("address", "jaccard-0.8", True, True): (
        "d8752eb31eb21bd3",
        {
            "probes": 400, "list_items_touched": 2745, "binary_searches": 1773,
            "candidates_checked": 932, "pairs_verified": 20, "pairs_output": 17,
            "index_entries": 2447, "bitmap_checks": 932, "bitmap_rejects": 912,
            "candidate_rejections_position": 1070,
            "extra.bitmap_signatures_built": 400, "extra.suffix_recursions": 140,
        },
    ),
    ("address", "dice-0.7", False, False): (
        "6d01d2cc551d5caf",
        {
            "probes": 400, "list_items_touched": 21040, "binary_searches": 6188,
            "candidates_checked": 6288, "pairs_verified": 6288, "pairs_output": 46,
            "index_entries": 6238, "candidate_rejections_position": 2711,
        },
    ),
    ("address", "dice-0.7", False, True): (
        "6d01d2cc551d5caf",
        {
            "probes": 400, "list_items_touched": 21040, "binary_searches": 6188,
            "candidates_checked": 6288, "pairs_verified": 3299, "pairs_output": 46,
            "index_entries": 6238, "candidate_rejections_position": 2711,
            "candidate_rejections_suffix": 2989, "extra.suffix_recursions": 44016,
        },
    ),
    ("address", "dice-0.7", True, False): (
        "6d01d2cc551d5caf",
        {
            "probes": 400, "list_items_touched": 21040, "binary_searches": 6188,
            "candidates_checked": 6288, "pairs_verified": 237, "pairs_output": 46,
            "index_entries": 6238, "bitmap_checks": 6288, "bitmap_rejects": 6051,
            "candidate_rejections_position": 2711,
            "extra.bitmap_signatures_built": 400,
        },
    ),
    ("address", "dice-0.7", True, True): (
        "6d01d2cc551d5caf",
        {
            "probes": 400, "list_items_touched": 21040, "binary_searches": 6188,
            "candidates_checked": 6288, "pairs_verified": 180, "pairs_output": 46,
            "index_entries": 6238, "bitmap_checks": 6288, "bitmap_rejects": 6051,
            "candidate_rejections_position": 2711,
            "candidate_rejections_suffix": 57, "extra.bitmap_signatures_built": 400,
            "extra.suffix_recursions": 1659,
        },
    ),
    ("address", "overlap-5", False, False): (
        "e61f6ab9494c6e34",
        {
            "probes": 400, "list_items_touched": 563489, "binary_searches": 16752,
            "candidates_checked": 78171, "pairs_verified": 78171,
            "pairs_output": 77085, "index_entries": 18472,
        },
    ),
    ("address", "overlap-5", False, True): (
        "e61f6ab9494c6e34",
        {
            "probes": 400, "list_items_touched": 563489, "binary_searches": 16752,
            "candidates_checked": 78171, "pairs_verified": 78155,
            "pairs_output": 77085, "index_entries": 18472,
            "candidate_rejections_suffix": 16, "extra.suffix_recursions": 121435,
        },
    ),
    ("address", "overlap-5", True, False): (
        "e61f6ab9494c6e34",
        {
            "probes": 400, "list_items_touched": 563489, "binary_searches": 16752,
            "candidates_checked": 78171, "pairs_verified": 78171,
            "pairs_output": 77085, "index_entries": 18472, "bitmap_checks": 512,
            "extra.bitmap_signatures_built": 400, "extra.bitmap_disabled": 1,
        },
    ),
    ("address", "overlap-5", True, True): (
        "e61f6ab9494c6e34",
        {
            "probes": 400, "list_items_touched": 563489, "binary_searches": 16752,
            "candidates_checked": 78171, "pairs_verified": 78155,
            "pairs_output": 77085, "index_entries": 18472, "bitmap_checks": 512,
            "candidate_rejections_suffix": 16, "extra.bitmap_signatures_built": 400,
            "extra.bitmap_disabled": 1, "extra.suffix_recursions": 121435,
        },
    ),
    ("citation", "jaccard-0.6", False, False): (
        "b2f5249748a410a8",
        {
            "probes": 400, "list_items_touched": 104460, "binary_searches": 16872,
            "candidates_checked": 15559, "pairs_verified": 15559,
            "pairs_output": 876, "index_entries": 15182,
            "candidate_rejections_position": 19224,
        },
    ),
    ("citation", "jaccard-0.6", False, True): (
        "b2f5249748a410a8",
        {
            "probes": 400, "list_items_touched": 104460, "binary_searches": 16872,
            "candidates_checked": 15559, "pairs_verified": 5523,
            "pairs_output": 876, "index_entries": 15182,
            "candidate_rejections_position": 19224,
            "candidate_rejections_suffix": 10036, "extra.suffix_recursions": 108913,
        },
    ),
    ("citation", "jaccard-0.6", True, False): (
        "b2f5249748a410a8",
        {
            "probes": 400, "list_items_touched": 104460, "binary_searches": 16872,
            "candidates_checked": 15559, "pairs_verified": 14668,
            "pairs_output": 876, "index_entries": 15182, "bitmap_checks": 8704,
            "bitmap_rejects": 891, "candidate_rejections_position": 19224,
            "extra.bitmap_signatures_built": 400, "extra.bitmap_disabled": 1,
        },
    ),
    ("citation", "jaccard-0.6", True, True): (
        "b2f5249748a410a8",
        {
            "probes": 400, "list_items_touched": 104460, "binary_searches": 16872,
            "candidates_checked": 15559, "pairs_verified": 5229,
            "pairs_output": 876, "index_entries": 15182, "bitmap_checks": 8704,
            "bitmap_rejects": 891, "candidate_rejections_position": 19224,
            "candidate_rejections_suffix": 9439,
            "extra.bitmap_signatures_built": 400, "extra.bitmap_disabled": 1,
            "extra.suffix_recursions": 102676,
        },
    ),
    ("citation", "jaccard-0.8", False, False): (
        "12949217636e7aed",
        {
            "probes": 400, "list_items_touched": 19586, "binary_searches": 7080,
            "candidates_checked": 2288, "pairs_verified": 2288, "pairs_output": 577,
            "index_entries": 6858, "candidate_rejections_position": 3588,
        },
    ),
    ("citation", "jaccard-0.8", False, True): (
        "12949217636e7aed",
        {
            "probes": 400, "list_items_touched": 19586, "binary_searches": 7080,
            "candidates_checked": 2288, "pairs_verified": 987, "pairs_output": 577,
            "index_entries": 6858, "candidate_rejections_position": 3588,
            "candidate_rejections_suffix": 1301, "extra.suffix_recursions": 16016,
        },
    ),
    ("citation", "jaccard-0.8", True, False): (
        "12949217636e7aed",
        {
            "probes": 400, "list_items_touched": 19586, "binary_searches": 7080,
            "candidates_checked": 2288, "pairs_verified": 894, "pairs_output": 577,
            "index_entries": 6858, "bitmap_checks": 2288, "bitmap_rejects": 1394,
            "candidate_rejections_position": 3588,
            "extra.bitmap_signatures_built": 400,
        },
    ),
    ("citation", "jaccard-0.8", True, True): (
        "12949217636e7aed",
        {
            "probes": 400, "list_items_touched": 19586, "binary_searches": 7080,
            "candidates_checked": 2288, "pairs_verified": 861, "pairs_output": 577,
            "index_entries": 6858, "bitmap_checks": 2288, "bitmap_rejects": 1394,
            "candidate_rejections_position": 3588,
            "candidate_rejections_suffix": 33, "extra.bitmap_signatures_built": 400,
            "extra.suffix_recursions": 6258,
        },
    ),
    ("citation", "dice-0.7", False, False): (
        "d074966786e44275",
        {
            "probes": 400, "list_items_touched": 152278, "binary_searches": 20815,
            "candidates_checked": 21842, "pairs_verified": 21842,
            "pairs_output": 881, "index_entries": 18133,
            "candidate_rejections_position": 23688,
        },
    ),
    ("citation", "dice-0.7", False, True): (
        "d074966786e44275",
        {
            "probes": 400, "list_items_touched": 152278, "binary_searches": 20815,
            "candidates_checked": 21842, "pairs_verified": 9651,
            "pairs_output": 881, "index_entries": 18133,
            "candidate_rejections_position": 23688,
            "candidate_rejections_suffix": 12191, "extra.suffix_recursions": 152894,
        },
    ),
    ("citation", "dice-0.7", True, False): (
        "d074966786e44275",
        {
            "probes": 400, "list_items_touched": 152278, "binary_searches": 20815,
            "candidates_checked": 21842, "pairs_verified": 21825,
            "pairs_output": 881, "index_entries": 18133, "bitmap_checks": 512,
            "bitmap_rejects": 17, "candidate_rejections_position": 23688,
            "extra.bitmap_signatures_built": 400, "extra.bitmap_disabled": 1,
        },
    ),
    ("citation", "dice-0.7", True, True): (
        "d074966786e44275",
        {
            "probes": 400, "list_items_touched": 152278, "binary_searches": 20815,
            "candidates_checked": 21842, "pairs_verified": 9641,
            "pairs_output": 881, "index_entries": 18133, "bitmap_checks": 512,
            "bitmap_rejects": 17, "candidate_rejections_position": 23688,
            "candidate_rejections_suffix": 12184,
            "extra.bitmap_signatures_built": 400, "extra.bitmap_disabled": 1,
            "extra.suffix_recursions": 152775,
        },
    ),
    ("citation", "overlap-5", False, False): (
        "16f80cad3380f14a",
        {
            "probes": 400, "list_items_touched": 2733749, "binary_searches": 55628,
            "candidates_checked": 79800, "pairs_verified": 79800,
            "pairs_output": 79800, "index_entries": 58126,
        },
    ),
    ("citation", "overlap-5", False, True): (
        "16f80cad3380f14a",
        {
            "probes": 400, "list_items_touched": 2733749, "binary_searches": 55628,
            "candidates_checked": 79800, "pairs_verified": 79800,
            "pairs_output": 79800, "index_entries": 58126,
        },
    ),
    ("citation", "overlap-5", True, False): (
        "16f80cad3380f14a",
        {
            "probes": 400, "list_items_touched": 2733749, "binary_searches": 55628,
            "candidates_checked": 79800, "pairs_verified": 79800,
            "pairs_output": 79800, "index_entries": 58126, "bitmap_checks": 512,
            "extra.bitmap_signatures_built": 400, "extra.bitmap_disabled": 1,
        },
    ),
    ("citation", "overlap-5", True, True): (
        "16f80cad3380f14a",
        {
            "probes": 400, "list_items_touched": 2733749, "binary_searches": 55628,
            "candidates_checked": 79800, "pairs_verified": 79800,
            "pairs_output": 79800, "index_entries": 58126, "bitmap_checks": 512,
            "extra.bitmap_signatures_built": 400, "extra.bitmap_disabled": 1,
        },
    ),
    ("address", "jaccard-0.6", "parallel-2"): (
        "c7bea45b4e018420",
        {
            "probes": 400, "list_items_touched": 15120, "binary_searches": 5134,
            "candidates_checked": 4594, "pairs_verified": 62, "pairs_output": 41,
            "index_entries": 10535, "records_scanned": 799, "bitmap_checks": 4594,
            "bitmap_rejects": 4514, "candidate_rejections_position": 2302,
            "candidate_rejections_suffix": 18, "extra.bitmap_signatures_built": 800,
            "extra.suffix_recursions": 560, "extra.parallel_workers": 2,
        },
    ),
}


@pytest.fixture(scope="module")
def golden_corpora():
    return {name: make() for name, make in _GOLDEN_CORPORA.items()}


def _pinned(result):
    """Fingerprint of the emitted pairs, in emission order, and the
    non-zero counters."""
    rows = [(p.rid_a, p.rid_b, repr(p.similarity)) for p in result.pairs]
    digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
    fields = asdict(result.counters)
    extra = fields.pop("extra")
    flat = {name: value for name, value in fields.items() if value}
    flat.update({f"extra.{name}": value for name, value in extra.items()})
    return digest, flat


def _case_id(case) -> str:
    if case[2] == "parallel-2":
        return "/".join(case)
    on = {False: "off", True: "on"}
    return f"{case[0]}/{case[1]}/bitmap-{on[case[2]]}/suffix-{on[case[3]]}"


class TestPinnedWork:
    """Pairs, emission order and every counter of the filter stack are
    pinned exactly; the perf gate only bounds work drift."""

    @pytest.mark.parametrize("case", list(_GOLDEN), ids=_case_id)
    def test_pairs_and_counters_pinned(self, case, golden_corpora):
        corpus, predicate = golden_corpora[case[0]], _GOLDEN_PREDICATES[case[1]]
        if case[2] == "parallel-2":
            result = parallel_join(
                corpus, predicate, algorithm="positional-filter",
                workers=2, bitmap_filter=True,
            )
        else:
            result = similarity_join(
                corpus, predicate, algorithm="positional-filter",
                bitmap_filter=True if case[2] else None, suffix_filter=case[3],
            )
        assert _pinned(result) == _GOLDEN[case]


class TestUnitScoreContract:
    """The unit-score gate scans every record, not a sampled head.

    Regression: the old check sampled only the first five records, so a
    predicate whose non-unit weights first appear at rid >= 5 slipped
    through and produced silently wrong joins.
    """

    @staticmethod
    def _late_weighted_setup():
        # Token 99 appears only from rid 6 on; its weight is not 1.0.
        records = [(i, i + 1, i + 2) for i in range(6)] + [
            (99, 100 + i, 101 + i) for i in range(4)
        ]
        predicate = WeightedOverlapPredicate(
            2.0, weights=lambda token: 2.0 if token == 99 else 1.0
        )
        return Dataset(records), predicate

    @pytest.mark.parametrize(
        "factory", [PrefixFilterJoin, PositionalFilterJoin]
    )
    def test_late_non_unit_scores_rejected(self, factory):
        data, predicate = self._late_weighted_setup()
        with pytest.raises(ValueError, match="unit-score"):
            factory().join(data, predicate)

    def test_all_unit_weights_accepted(self):
        # The full scan is a gate, not a ban: explicitly unit weights
        # pass even without the static unit_scores declaration.
        data = random_dataset(seed=22)
        predicate = WeightedOverlapPredicate(3.0, weights=lambda token: 1.0)
        truth = NaiveJoin().join(data, OverlapPredicate(3)).pair_set()
        assert PositionalFilterJoin().join(data, predicate).pair_set() == truth


class TestDeterministicEmission:
    """Emission order is a pure function of the input (no per-probe sort)."""

    @pytest.mark.parametrize(
        "factory", [PrefixFilterJoin, PositionalFilterJoin]
    )
    def test_repeat_runs_identical(self, factory):
        data = random_dataset(seed=23, n_base=90)
        predicate = JaccardPredicate(0.5)
        first = factory().join(data, predicate)
        second = factory().join(data, predicate)
        assert [
            (p.rid_a, p.rid_b, p.similarity) for p in first.pairs
        ] == [(p.rid_a, p.rid_b, p.similarity) for p in second.pairs]
        assert first.counters == second.counters
