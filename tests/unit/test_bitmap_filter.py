"""Unit coverage for the bitmap-signature pruning layer (repro.filters)."""

import random

import pytest

from repro import (
    CosinePredicate,
    Dataset,
    DicePredicate,
    EditDistancePredicate,
    JaccardPredicate,
    OverlapPredicate,
)
from repro.filters import (
    AdaptiveController,
    BitmapFilterConfig,
    BitmapPruner,
    NullController,
    SignatureStore,
    bit_for_token,
    resolve_bitmap_filter,
)
from repro.predicates.base import WEIGHT_EPS
from repro.predicates.edit_distance import qgram_dataset
from repro.utils.counters import CostCounters
from tests.conftest import random_dataset

RECORDS = [
    (0, 1, 2, 3),
    (1, 2, 3, 4),
    (10, 11, 12),
    (0, 1, 2, 3, 4, 5),
    (20,),
]


class TestBitAssignment:
    def test_in_range_and_deterministic(self):
        for width in (8, 16, 64, 128, 300):
            positions = [bit_for_token(t, width) for t in range(200)]
            assert all(0 <= p < width for p in positions)
            assert positions == [bit_for_token(t, width) for t in range(200)]

    def test_spreads_consecutive_ids(self):
        # Fibonacci hashing should not map consecutive ids to one bit.
        assert len({bit_for_token(t, 128) for t in range(64)}) > 32


class TestConfig:
    def test_defaults(self):
        config = BitmapFilterConfig()
        assert config.width == 128
        assert config.adaptive

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"width": 7},
            {"width": 0},
            {"sample_size": 0},
            {"min_reject_rate": -0.1},
            {"min_reject_rate": 1.5},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            BitmapFilterConfig(**kwargs)

    def test_resolve(self):
        assert resolve_bitmap_filter(None) is None
        assert resolve_bitmap_filter(False) is None
        assert resolve_bitmap_filter(True) == BitmapFilterConfig()
        assert resolve_bitmap_filter(64) == BitmapFilterConfig(width=64)
        config = BitmapFilterConfig(width=32, adaptive=False)
        assert resolve_bitmap_filter(config) is config
        with pytest.raises(TypeError):
            resolve_bitmap_filter("wide")


class TestSignatureStore:
    def _store(self, width=64):
        bound = OverlapPredicate(2).bind(Dataset(list(RECORDS)))
        return SignatureStore.build(bound, width), bound

    def test_weight_cap_bounds_intersection(self):
        # Unit scores (overlap): cap must dominate |r ∩ s| for all pairs
        # at every width, including widths narrow enough to collide.
        for width in (8, 16, 64):
            store, _ = self._store(width)
            for a in range(len(RECORDS)):
                for b in range(len(RECORDS)):
                    truth = len(set(RECORDS[a]) & set(RECORDS[b]))
                    assert store.weight_cap(store.entry(a), b) >= truth

    def test_cap_never_exceeds_smaller_size(self):
        store, _ = self._store()
        for a in range(len(RECORDS)):
            for b in range(len(RECORDS)):
                cap = store.weight_cap(store.entry(a), b)
                assert cap <= min(len(RECORDS[a]), len(RECORDS[b]))

    def test_disjoint_records_capped_by_collisions_only(self):
        store, _ = self._store(width=4096)
        # At 4096 bits these token ids cannot collide: disjoint sets
        # must get a zero cap.
        assert store.weight_cap(store.entry(0), 4) == 0.0

    def test_probe_entry_matches_stored_entry(self):
        store, bound = self._store()
        for rid, record in enumerate(RECORDS):
            entry = store.components_for(
                record, bound.cached_score_vector(rid)
            )
            assert entry == store.entry(rid)

    def test_extend_from_appends_only_new(self):
        bound = OverlapPredicate(2).bind(Dataset(list(RECORDS)))
        store = SignatureStore(64)
        store.extend_from(bound, 0)
        before = [store.entry(rid) for rid in range(len(RECORDS))]
        store2 = SignatureStore(64)
        store2.extend_from(bound, 3)
        assert len(store2) == len(RECORDS) - 3
        assert store2.entry(0) == before[3]

    def test_restore_round_trip(self):
        store, bound = self._store()
        restored = SignatureStore.restore(64, store.signatures(), bound)
        assert len(restored) == len(store)
        for rid in range(len(RECORDS)):
            assert restored.entry(rid) == store.entry(rid)

    @pytest.mark.parametrize("width", [8, 64, 128, 1000])
    @pytest.mark.parametrize("make_predicate", [JaccardPredicate, CosinePredicate])
    @pytest.mark.parametrize("seed", [3, 17])
    def test_build_equals_per_record_components(self, width, make_predicate, seed):
        # build hashes each distinct token once per call;
        # components_for hashes every token of one record. Cosine
        # brings non-unit max scores.
        data = random_dataset(seed=seed, universe=400, max_size=40)
        bound = make_predicate(0.5).bind(data)
        store = SignatureStore.build(bound, width)
        entries = [store.entry(rid) for rid in range(len(store))]
        assert entries == [
            store.components_for(data[rid], bound.cached_score_vector(rid))
            for rid in range(len(data))
        ]
        restored = SignatureStore.restore(width, store.signatures(), bound)
        assert [restored.entry(rid) for rid in range(len(restored))] == entries


class TestAdapterDispatch:
    """Soundness comes from the flags each predicate declares."""

    def test_constant_threshold_predicates(self):
        data = Dataset(list(RECORDS))
        for predicate in (OverlapPredicate(2), CosinePredicate(0.5)):
            bound = predicate.bind(data)
            pruner = BitmapPruner.for_join(bound, BitmapFilterConfig())
            assert pruner is not None
            assert pruner.const_threshold == bound.threshold(0.0, 0.0)

    def test_norm_dependent_predicates(self):
        bound = JaccardPredicate(0.5).bind(Dataset(list(RECORDS)))
        pruner = BitmapPruner.for_join(bound, BitmapFilterConfig())
        assert pruner is not None and pruner.const_threshold is None

    def test_edit_distance_requires_qgram_flag(self):
        bound = EditDistancePredicate(k=1).bind(qgram_dataset(["abcdef", "abcdeg"]))
        assert bound.bitmap_qgram_bound and not bound.use_signature_prefilter
        assert BitmapPruner.for_join(bound, BitmapFilterConfig()) is not None

    def test_unknown_predicate_stays_off(self):
        class _Opaque:
            use_signature_prefilter = False

        assert BitmapPruner.for_join(_Opaque(), BitmapFilterConfig()) is None


class TestControllers:
    def test_null_controller_always_active(self):
        controller = NullController()
        assert controller.active and controller.decided

    def test_adaptive_disables_on_low_reject_rate(self):
        controller = AdaptiveController(sample_size=10, min_reject_rate=0.5)
        counters = CostCounters()
        for _ in range(10):
            controller.observe(False, counters)
        assert controller.decided and not controller.active
        assert counters.extra["bitmap_disabled"] == 1

    def test_adaptive_stays_on_when_paying(self):
        controller = AdaptiveController(sample_size=10, min_reject_rate=0.5)
        counters = CostCounters()
        for i in range(10):
            controller.observe(i % 2 == 0, counters)
        assert controller.decided and controller.active
        assert "bitmap_disabled" not in counters.extra

    def test_later_low_window_disables(self):
        # The first window pays, the second does not: judging only the
        # first window would keep the filter on for the rest of the run.
        controller = AdaptiveController(sample_size=10, min_reject_rate=0.5)
        counters = CostCounters()
        for _ in range(10):
            controller.observe(True, counters)
        assert controller.decided and controller.active
        assert controller.state()["sampled_checks"] == 0
        for i in range(10):
            assert controller.active
            controller.observe(i < 4, counters)
        assert not controller.active
        assert counters.extra["bitmap_disabled"] == 1
        assert controller.state()["sampled_checks"] == 10
        assert controller.state()["sampled_rejects"] == 4

    def test_disable_is_one_way_and_recorded_once(self):
        controller = AdaptiveController(sample_size=10, min_reject_rate=0.5)
        counters = CostCounters()
        for _ in range(10):
            controller.observe(False, counters)
        assert not controller.active
        # Windows full of rejects after the switch never turn it back on
        # and never count another disable.
        for _ in range(50):
            controller.observe(True, counters)
        assert not controller.active
        assert counters.extra["bitmap_disabled"] == 1
        assert controller.state()["sampled_checks"] == 10

    def test_pruner_observes_every_window(self):
        # Through BitmapPruner.rejects: checks past the first window
        # still reach the controller, so a later low window switches off.
        data = Dataset([(0, 1), (0, 1), (5, 6)])
        bound = OverlapPredicate(2).bind(data)
        pruner = BitmapPruner.for_join(
            bound, BitmapFilterConfig(width=64, sample_size=4, min_reject_rate=0.5)
        )
        counters = CostCounters()
        entry = pruner.entry_of(bound, 0)
        for _ in range(4):
            assert pruner.rejects(entry, 2, 2, counters)
        assert pruner.controller.decided and pruner.controller.active
        for _ in range(4):
            assert not pruner.rejects(entry, 1, 2, counters)
        assert not pruner.controller.active
        assert counters.extra["bitmap_disabled"] == 1


class TestPrunerAndCounters:
    def test_counters_and_no_false_rejects(self):
        data = Dataset(list(RECORDS))
        bound = OverlapPredicate(2).bind(data)
        pruner = BitmapPruner.for_join(
            bound, BitmapFilterConfig(width=128, adaptive=False)
        )
        counters = CostCounters()
        rejected = [
            (a, b)
            for a in range(len(RECORDS))
            for b in range(a + 1, len(RECORDS))
            if pruner.rejects(pruner.entry_of(bound, a), b, 2, counters)
        ]
        n_pairs = len(RECORDS) * (len(RECORDS) - 1) // 2
        assert counters.bitmap_checks == n_pairs
        assert counters.bitmap_rejects == len(rejected)
        for a, b in rejected:
            assert len(set(RECORDS[a]) & set(RECORDS[b])) < 2

    def test_entry_of_signs_an_unstored_probe(self):
        # A query probe sits one past the stored records: entry_of builds
        # its entry on the fly, equal to what storing it would give.
        probe = len(RECORDS) - 1
        indexed = OverlapPredicate(2).bind(Dataset(list(RECORDS[:probe])))
        pruner = BitmapPruner.for_join(
            indexed, BitmapFilterConfig(width=64, adaptive=False)
        )
        assert len(pruner.store) == probe
        bound = OverlapPredicate(2).bind(Dataset(list(RECORDS)))
        stored = SignatureStore.build(bound, 64).entry(probe)
        assert pruner.entry_of(bound, probe) == stored
        assert pruner.entry_of(bound, 0) == pruner.store.entry(0)

    def test_bitmap_checks_excluded_from_total_work(self):
        counters = CostCounters()
        base = counters.total_work()
        counters.bitmap_checks += 100
        counters.bitmap_rejects += 40
        assert counters.total_work() == base

    def test_for_join_returns_none_without_adapter(self):
        class _Opaque:
            use_signature_prefilter = False

        assert (
            BitmapPruner.for_join(_Opaque(), BitmapFilterConfig()) is None
        )

    def test_merge_preserves_bitmap_counters(self):
        a, b = CostCounters(), CostCounters()
        a.bitmap_checks, a.bitmap_rejects = 5, 2
        b.bitmap_checks, b.bitmap_rejects = 7, 3
        a.merge(b)
        assert (a.bitmap_checks, a.bitmap_rejects) == (12, 5)


def _one_at_a_time(pruner, bound, rid, candidates, counters):
    """:meth:`BitmapPruner.screen`'s reference: one ``rejects`` call
    per candidate while the controller is on, the pair threshold in
    canonical orientation, each decision held against ``weight_cap``."""
    entry = pruner.entry_of(bound, rid)
    survivors = []
    for sid in candidates:
        if pruner.controller.active:
            threshold = pruner.const_threshold
            if threshold is None:
                low, high = (sid, rid) if sid < rid else (rid, sid)
                threshold = bound.threshold(bound.norm(low), bound.norm(high))
            rejected = pruner.rejects(entry, sid, threshold, counters)
            assert rejected == (
                pruner.store.weight_cap(entry, sid) < threshold - WEIGHT_EPS
            )
            if rejected:
                continue
        survivors.append(sid)
    return survivors


class TestScreen:
    """One call per probe checks exactly what the one-at-a-time loop
    checks: same survivors, counters, and controller state."""

    def _compare(self, bound, config, probes, store_bound=None):
        batch, single = (
            BitmapPruner.for_join(store_bound or bound, config) for _ in range(2)
        )
        batch_counters, single_counters = CostCounters(), CostCounters()
        cut_mid_list = False
        for rid, candidates in probes:
            before = batch_counters.bitmap_checks
            survivors = batch.screen(bound, rid, list(candidates), batch_counters)
            checked = batch_counters.bitmap_checks - before
            cut_mid_list |= 0 < checked < len(candidates)
            assert survivors == _one_at_a_time(
                single, bound, rid, candidates, single_counters
            )
        assert batch_counters.bitmap_checks == single_counters.bitmap_checks
        assert batch_counters.bitmap_rejects == single_counters.bitmap_rejects
        assert batch_counters.extra.get("bitmap_disabled") == (
            single_counters.extra.get("bitmap_disabled")
        )
        assert batch.controller.state() == single.controller.state()
        return batch_counters, cut_mid_list

    @staticmethod
    def _probes(n, seed):
        # Every record probes all others, lower and higher rids mixed
        # (both threshold orientations), in a seeded order.
        rng = random.Random(seed)
        probes = []
        for rid in range(n):
            candidates = [sid for sid in range(n) if sid != rid]
            rng.shuffle(candidates)
            probes.append((rid, candidates))
        return probes

    @pytest.mark.parametrize("sample_size", [1, 8, 512])
    def test_switch_off_lands_mid_list(self, sample_size):
        data = random_dataset(seed=5)
        bound = JaccardPredicate(0.5).bind(data)
        config = BitmapFilterConfig(
            width=64, sample_size=sample_size, min_reject_rate=1.0
        )
        counters, cut_mid_list = self._compare(
            bound, config, self._probes(len(data), seed=sample_size)
        )
        assert counters.extra.get("bitmap_disabled") == 1
        assert cut_mid_list

    def test_constant_threshold(self):
        data = random_dataset(seed=8)
        bound = OverlapPredicate(3).bind(data)
        assert bound.constant_threshold
        counters, _ = self._compare(
            bound, BitmapFilterConfig(width=32), self._probes(len(data), seed=1)
        )
        assert counters.bitmap_rejects

    def test_null_controller_checks_everything(self):
        data = random_dataset(seed=9)
        bound = JaccardPredicate(0.6).bind(data)
        config = BitmapFilterConfig(width=64, adaptive=False)
        counters, _ = self._compare(bound, config, self._probes(len(data), seed=2))
        assert counters.bitmap_checks == len(data) * (len(data) - 1)
        assert "bitmap_disabled" not in counters.extra

    def test_ephemeral_probe(self):
        # The probe sits one past the stored records (a served query):
        # its entry is built on the fly, its norm read from the full
        # binding.
        data = random_dataset(seed=10)
        probe = len(data) - 1
        indexed = JaccardPredicate(0.5).bind(Dataset(list(data.records[:probe])))
        bound = JaccardPredicate(0.5).bind(data)
        counters, _ = self._compare(
            bound,
            BitmapFilterConfig(width=64, sample_size=16),
            [(probe, list(range(probe)))],
            store_bound=indexed,
        )
        assert counters.bitmap_checks

    @pytest.mark.parametrize(
        "predicate",
        [JaccardPredicate(0.5), DicePredicate(0.6), OverlapPredicate(3)],
        ids=["jaccard", "dice", "overlap"],
    )
    def test_fresh_binding_keeps_exactly_what_rejects_keeps(self, predicate):
        # Each probe is screened through a binding that has computed no
        # norm yet, so the per-pair thresholds must come from norms the
        # screen fills itself. Overlap's threshold is constant: it
        # never reads a norm.
        data = random_dataset(seed=11)
        pruner = BitmapPruner.for_join(
            predicate.bind(data), BitmapFilterConfig(width=64, adaptive=False)
        )
        assert (pruner.const_threshold is None) == (
            not isinstance(predicate, OverlapPredicate)
        )
        reference = predicate.bind(data)
        counters = CostCounters()
        for rid, candidates in self._probes(len(data), seed=3):
            survivors = pruner.screen(
                predicate.bind(data), rid, list(candidates), counters
            )
            entry = pruner.entry_of(reference, rid)
            kept = []
            for sid in candidates:
                low, high = (sid, rid) if sid < rid else (rid, sid)
                threshold = reference.threshold(
                    reference.norm(low), reference.norm(high)
                )
                if not pruner.rejects(entry, sid, threshold, CostCounters()):
                    kept.append(sid)
            assert survivors == kept
        assert 0 < counters.bitmap_rejects < counters.bitmap_checks

    def test_empty_and_switched_off_lists_pass_through(self):
        bound = OverlapPredicate(2).bind(Dataset(list(RECORDS)))
        pruner = BitmapPruner.for_join(
            bound, BitmapFilterConfig(width=64, sample_size=1, min_reject_rate=1.0)
        )
        counters = CostCounters()
        assert pruner.screen(bound, 0, [], counters) == []
        # (0, 1) share three tokens: kept, and the window of one check
        # without a reject switches the filter off.
        assert pruner.screen(bound, 0, [1], counters) == [1]
        assert not pruner.controller.active
        assert pruner.screen(bound, 0, [2, 4], counters) == [2, 4]
        assert (counters.bitmap_checks, counters.bitmap_rejects) == (1, 0)
