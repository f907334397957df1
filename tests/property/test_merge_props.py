"""Hypothesis properties for the three merge engines."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heap_merge import heap_merge
from repro.core.merge_dynamic import merge_dynamic
from repro.core.merge_opt import merge_opt
from repro.utils.counters import CostCounters
from tests.conftest import posting_list

# A "probe" is a set of posting lists with scores.
posting_ids = st.lists(
    st.integers(min_value=0, max_value=60), min_size=1, max_size=30, unique=True
).map(sorted)

scored_list = st.tuples(
    posting_ids,
    st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
    st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
)

probe = st.lists(scored_list, min_size=0, max_size=8)
thresholds = st.floats(min_value=0.2, max_value=8.0, allow_nan=False)


def build(lists_spec):
    return [
        (posting_list((entity, entry_score) for entity in ids), probe_score)
        for ids, entry_score, probe_score in lists_spec
    ]


def reference(lists_spec, threshold):
    """Dict-based accumulation: the obviously-correct merge."""
    weights: dict[int, float] = {}
    for ids, entry_score, probe_score in lists_spec:
        for entity in ids:
            weights[entity] = weights.get(entity, 0.0) + entry_score * probe_score
    return {
        entity: weight
        for entity, weight in weights.items()
        if weight >= threshold - 1e-7
    }


class TestMergeProperties:
    @settings(max_examples=150, deadline=None)
    @given(probe, thresholds)
    def test_heap_merge_equals_reference(self, lists_spec, threshold):
        got = dict(heap_merge(build(lists_spec), lambda _s: threshold, CostCounters()))
        expected = reference(lists_spec, threshold)
        assert set(got) == set(expected)
        for entity, weight in got.items():
            assert abs(weight - expected[entity]) < 1e-6

    @settings(max_examples=150, deadline=None)
    @given(probe, thresholds)
    def test_merge_opt_equals_reference(self, lists_spec, threshold):
        got = dict(
            merge_opt(build(lists_spec), threshold, lambda _s: threshold, CostCounters())
        )
        expected = reference(lists_spec, threshold)
        assert set(got) == set(expected)
        for entity, weight in got.items():
            assert abs(weight - expected[entity]) < 1e-6

    @settings(max_examples=100, deadline=None)
    @given(probe, thresholds)
    def test_merge_dynamic_static_equals_reference(self, lists_spec, threshold):
        got = {}

        def on_candidate(entity, weight):
            got[entity] = weight
            return threshold

        merge_dynamic(build(lists_spec), threshold, threshold, on_candidate, CostCounters())
        expected = reference(lists_spec, threshold)
        assert set(got) == set(expected)

    @settings(max_examples=100, deadline=None)
    @given(probe, thresholds, st.floats(min_value=0.05, max_value=1.0))
    def test_merge_dynamic_raises_never_lose_cap_candidates(
        self, lists_spec, cap, initial_fraction
    ):
        """Whatever raising policy runs, entities >= cap survive exactly."""
        initial = cap * initial_fraction
        reported = {}

        def on_candidate(entity, weight, _state={"t": None}):
            reported[entity] = weight
            if _state["t"] is None:
                _state["t"] = initial
            _state["t"] = (_state["t"] + weight) / 2
            return _state["t"]

        merge_dynamic(build(lists_spec), initial, cap, on_candidate, CostCounters())
        expected = reference(lists_spec, cap)
        for entity, weight in expected.items():
            assert entity in reported
            assert abs(reported[entity] - weight) < 1e-6
