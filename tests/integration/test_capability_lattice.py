"""The capability lattice, read from the algorithms' own declarations.

Every registry name x ``index_backend`` x ``merge_backend`` x worker
count is one cell. A cell the algorithm declares (``index_backends``,
``merges``, ``shardable``) must return exactly naive's
``(rid_a, rid_b, similarity)`` set; every other cell must raise
:class:`UnsupportedConfiguration` from ``make_algorithm``, or from
``parallel_join`` before any worker starts. The cells come from
``ALGORITHMS``, so a new registry row is covered without editing this
file.
"""

import pytest

from repro import (
    ALGORITHMS,
    JaccardPredicate,
    JoinContext,
    UnsupportedConfiguration,
    make_algorithm,
    parallel_join,
    similarity_join,
)
from repro.parallel import engine
from tests.conftest import random_dataset

DATA = random_dataset(seed=5, n_base=40)
PREDICATE = JaccardPredicate(0.5)
TRUTH = {
    (p.rid_a, p.rid_b, p.similarity)
    for p in similarity_join(DATA, PREDICATE, algorithm="naive").pairs
}


def _declares(instance, backend: str, merge: str, workers: int) -> bool:
    return (
        backend in instance.index_backends
        and (merge == "auto" or instance.merges)
        and (workers == 1 or instance.shardable)
    )


def _context(instance):
    """Budget-respecting algorithms (ClusterMem) take their budget from
    the context: a quarter of the full index, so the join partitions."""
    if instance.respects_memory_budget:
        return JoinContext(
            memory_budget_entries=DATA.total_word_occurrences() // 4
        )
    return None


def _no_fork():
    raise AssertionError("parallel_join started workers for a refused cell")


def test_lattice_is_not_trivial():
    assert TRUTH
    assert any(ALGORITHMS[name]().shardable for name in ALGORITHMS)
    assert not all(ALGORITHMS[name]().shardable for name in ALGORITHMS)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("merge", ["auto", "heap"])
@pytest.mark.parametrize("backend", ["memory", "mmap", "mmap-varbyte"])
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_cell(name, backend, merge, workers, monkeypatch):
    instance = ALGORITHMS[name]()
    knobs = {"index_backend": backend, "merge_backend": merge}
    if not _declares(instance, backend, merge, workers):
        monkeypatch.setattr(engine, "_mp_context", _no_fork)
        with pytest.raises(UnsupportedConfiguration):
            if workers == 1:
                make_algorithm(name, **knobs)
            else:
                parallel_join(DATA, PREDICATE, name, workers=workers, **knobs)
        return
    context = _context(instance)
    if workers == 1:
        result = make_algorithm(name, **knobs).join(DATA, PREDICATE, context=context)
    else:
        result = parallel_join(
            DATA, PREDICATE, name, workers=workers, context=context, **knobs
        )
    assert not result.degraded
    assert {(p.rid_a, p.rid_b, p.similarity) for p in result.pairs} == TRUTH
