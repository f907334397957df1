"""Unit tests for the similarity_join dispatch API and results."""

import re
from pathlib import Path

import pytest

from repro import (
    ALGORITHMS,
    Dataset,
    JoinContext,
    JoinResult,
    MatchPair,
    OverlapPredicate,
    make_algorithm,
    similarity_join,
)
from repro.storage.mmap_index import INDEX_BACKENDS


class TestMatchPair:
    def test_make_orients_canonically(self):
        pair = MatchPair.make(5, 2, 0.7)
        assert (pair.rid_a, pair.rid_b) == (2, 5)

    def test_ordering(self):
        assert MatchPair(0, 1) < MatchPair(0, 2) < MatchPair(1, 2)


class TestJoinResult:
    def test_pair_set_and_len(self):
        result = JoinResult(
            pairs=[MatchPair(0, 1, 1.0), MatchPair(2, 3, 1.0)],
            algorithm="x",
            predicate="y",
        )
        assert len(result) == 2
        assert result.pair_set() == {(0, 1), (2, 3)}

    def test_sorted_pairs(self):
        result = JoinResult(
            pairs=[MatchPair(2, 3), MatchPair(0, 5), MatchPair(0, 1)],
            algorithm="x",
            predicate="y",
        )
        assert [(p.rid_a, p.rid_b) for p in result.sorted_pairs()] == [
            (0, 1),
            (0, 5),
            (2, 3),
        ]

    def test_repr_mentions_algorithm(self):
        result = JoinResult(pairs=[], algorithm="probe-cluster", predicate="overlap(T=2)")
        assert "probe-cluster" in repr(result)


class TestDispatch:
    @pytest.fixture
    def data(self):
        return Dataset([(0, 1, 2), (0, 1, 2), (5, 6, 7)])

    def test_every_registered_algorithm_runs(self, data):
        for name in ALGORITHMS:
            # cluster-mem is the one row without a default budget.
            kwargs = {"memory_fraction": 1.0} if name == "cluster-mem" else {}
            result = similarity_join(
                data, OverlapPredicate(3), algorithm=name, **kwargs
            )
            assert result.pair_set() == {(0, 1)}, name

    def test_unknown_algorithm(self, data):
        with pytest.raises(ValueError):
            similarity_join(data, OverlapPredicate(1), algorithm="quantum")

    def test_cluster_mem_needs_budget(self, data):
        algorithm = make_algorithm("cluster-mem")
        with pytest.raises(ValueError, match="budget"):
            algorithm.join(data, OverlapPredicate(3))
        with pytest.raises(ValueError, match="not both"):
            make_algorithm("cluster-mem", budget=5, memory_fraction=0.5)

    def test_cluster_mem_takes_context_budget(self, data):
        context = JoinContext(memory_budget_entries=5)
        result = similarity_join(
            data, OverlapPredicate(3), algorithm="cluster-mem", context=context
        )
        assert result.pair_set() == {(0, 1)}
        assert not result.degraded

    def test_cluster_mem_with_fraction(self, data):
        result = similarity_join(
            data, OverlapPredicate(3), algorithm="cluster-mem", memory_fraction=0.5
        )
        assert result.pair_set() == {(0, 1)}

    def test_cluster_mem_with_budget(self, data):
        from repro import MemoryBudget

        result = similarity_join(
            data, OverlapPredicate(3), algorithm="cluster-mem", budget=MemoryBudget(5)
        )
        assert result.pair_set() == {(0, 1)}

    def test_kwargs_forwarded(self, data):
        algorithm = make_algorithm("probe-count-optmerge", variant="online")
        assert algorithm.variant == "online"

    def test_result_metadata(self, data):
        result = similarity_join(data, OverlapPredicate(3), algorithm="probe-cluster")
        assert result.algorithm == "probe-cluster"
        assert result.predicate == "overlap(T=3)"
        assert result.elapsed_seconds >= 0.0
        assert result.counters.pairs_output == len(result.pairs)


class TestCapabilityTable:
    """README's algorithm table states exactly what each class declares."""

    @staticmethod
    def _table() -> dict[str, dict[str, str]]:
        readme = Path(__file__).resolve().parents[2] / "README.md"
        lines = readme.read_text(encoding="utf-8").splitlines()
        start = lines.index(
            next(line for line in lines if line.startswith("| name | paper |"))
        )
        header = [cell.strip() for cell in lines[start].strip("|").split("|")]
        rows = {}
        for line in lines[start + 2 :]:
            if not line.startswith("|"):
                break
            cells = dict(
                zip(header, (cell.strip() for cell in line.strip("|").split("|")))
            )
            for name in re.findall(r"`([a-z-]+)`", cells["name"]):
                rows[name] = cells
        return rows

    def test_table_matches_declarations(self):
        table = self._table()
        assert set(table) == set(ALGORITHMS)
        for name, factory in ALGORITHMS.items():
            algorithm = factory()
            row = table[name]
            declared = {
                "workers": "any" if algorithm.shardable else "1",
                "index backends": ", ".join(
                    backend
                    for backend in INDEX_BACKENDS
                    if backend in algorithm.index_backends
                ),
                "merge backend": "any" if algorithm.merges else "auto",
                "checkpoint": "yes" if algorithm.resumable else "no",
                "predicate": algorithm.requires_scores or "any",
            }
            assert {key: row[key] for key in declared} == declared, name
