"""Backend-equivalence properties: memory-mapped vs in-memory postings.

The contract the ``index_backend`` knob promises: a join served off the
write-once mapped columnar file — raw columns (``"mmap"``) or varbyte
id blocks (``"mmap-varbyte"``) — returns matches *bit-identical* to the
in-memory index — same pairs, same similarities, same counted work —
under every predicate, serially and sharded over workers, with the
bitmap filter armed or not, and under both probe-merge engines. The
saved serving state (``SimilarityIndex.save``) makes the same promise
between its two loads: mapped (``mmap=True``) and read into memory.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CosinePredicate,
    JaccardPredicate,
    OverlapPredicate,
)
from repro.core.join import make_algorithm, similarity_join
from repro.core.service import SimilarityIndex
from tests.conftest import random_dataset, random_strings

_PREDICATES = [
    pytest.param(OverlapPredicate(4), id="overlap"),
    pytest.param(JaccardPredicate(0.6), id="jaccard"),
    pytest.param(CosinePredicate(0.7), id="cosine"),
]

_ALGORITHMS = ["probe-count", "probe-count-optmerge", "probe-count-stopwords"]


_MAPPED_BACKENDS = ["mmap", "mmap-varbyte"]


def _match_tuples(result):
    """Full (rid_a, rid_b, similarity) tuples: bit-identity, not just pairs."""
    return sorted((p.rid_a, p.rid_b, p.similarity) for p in result.pairs)


def _assert_same_run(mapped, memory):
    assert _match_tuples(mapped) == _match_tuples(memory)
    assert mapped.counters.total_work() == memory.counters.total_work()


def _join(dataset, predicate, algorithm, *, backend, merge="auto", bitmap=None):
    algo = make_algorithm(
        algorithm,
        index_backend=backend,
        merge_backend=merge,
        bitmap_filter=bitmap,
    )
    return algo.join(dataset, predicate)


@pytest.mark.parametrize("backend", _MAPPED_BACKENDS)
class TestJoinEquivalence:
    @pytest.mark.parametrize("predicate", _PREDICATES)
    @pytest.mark.parametrize("algorithm", _ALGORITHMS)
    def test_serial_backends_bit_identical(self, predicate, algorithm, backend):
        data = random_dataset(seed=61, n_base=80, universe=30)
        memory = _join(data, predicate, algorithm, backend="memory")
        mapped = _join(data, predicate, algorithm, backend=backend)
        _assert_same_run(mapped, memory)

    @pytest.mark.parametrize("predicate", _PREDICATES)
    @pytest.mark.parametrize("merge", ["heap", "accumulator"])
    def test_merge_backends_bit_identical(self, predicate, merge, backend):
        data = random_dataset(seed=67, n_base=80, universe=30)
        memory = _join(
            data, predicate, "probe-count-optmerge", backend="memory", merge=merge
        )
        mapped = _join(
            data, predicate, "probe-count-optmerge", backend=backend, merge=merge
        )
        _assert_same_run(mapped, memory)

    @pytest.mark.parametrize("predicate", _PREDICATES)
    @pytest.mark.parametrize("bitmap", [False, True])
    def test_bitmap_filter_bit_identical(self, predicate, bitmap, backend):
        data = random_dataset(seed=71, n_base=80, universe=30)
        memory = _join(
            data, predicate, "probe-count-optmerge", backend="memory", bitmap=bitmap
        )
        mapped = _join(
            data, predicate, "probe-count-optmerge", backend=backend, bitmap=bitmap
        )
        _assert_same_run(mapped, memory)

    @pytest.mark.parametrize("predicate", _PREDICATES)
    def test_sharded_matches_serial(self, predicate, backend):
        from repro.parallel import parallel_join

        data = random_dataset(seed=73, n_base=90, universe=30)
        serial = _join(data, predicate, "probe-count-optmerge", backend="memory")
        sharded = {
            index_backend: parallel_join(
                data,
                predicate,
                algorithm="probe-count-optmerge",
                workers=4,
                index_backend=index_backend,
            )
            for index_backend in ("memory", backend)
        }
        assert _match_tuples(sharded[backend]) == _match_tuples(serial)
        _assert_same_run(sharded[backend], sharded["memory"])

    def test_probe_work_matches_in_memory(self, backend):
        # The mapped columns feed the same galloping merge: the probe
        # work the cost model counts must not change with the substrate.
        data = random_dataset(seed=79, n_base=80, universe=30)
        predicate = JaccardPredicate(0.6)
        memory = _join(data, predicate, "probe-count-optmerge", backend="memory")
        mapped = _join(data, predicate, "probe-count-optmerge", backend=backend)
        assert (
            mapped.counters.list_items_touched
            == memory.counters.list_items_touched
        )
        assert mapped.counters.heap_pops == memory.counters.heap_pops
        assert mapped.counters.pairs_verified == memory.counters.pairs_verified

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_datasets_bit_identical(self, backend, seed):
        data = random_dataset(seed=seed, n_base=50, universe=25)
        predicate = JaccardPredicate(0.5)
        memory = similarity_join(
            data, predicate, algorithm="probe-count-optmerge"
        )
        mapped = similarity_join(
            data,
            predicate,
            algorithm="probe-count-optmerge",
            index_backend=backend,
        )
        _assert_same_run(mapped, memory)


class TestServingEquivalence:
    @pytest.mark.parametrize("merge", ["heap", "accumulator"])
    def test_mapped_service_bit_identical_to_snapshot(self, tmp_path, merge):
        docs = random_strings(seed=83, n=60)
        queries = random_strings(seed=89, n=25)
        predicate = JaccardPredicate(0.5)
        service = SimilarityIndex(predicate, merge_backend=merge)
        for doc in docs:
            service.add(doc)
        mpath = str(tmp_path / "ix.rpmx")
        service.save(mpath)

        in_memory = SimilarityIndex.load(mpath, predicate, merge_backend=merge)
        mapped = SimilarityIndex.load(
            mpath, predicate, merge_backend=merge, mmap=True
        )
        try:
            for query in queries:
                expected = [
                    (p.rid_a, p.rid_b, p.similarity)
                    for p in in_memory.query(query)
                ]
                got = [
                    (p.rid_a, p.rid_b, p.similarity) for p in mapped.query(query)
                ]
                assert got == expected
        finally:
            mapped.close()
