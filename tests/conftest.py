"""Shared test fixtures and dataset factories."""

from __future__ import annotations

import random

import pytest

from repro import Dataset
from repro.core.inverted_index import PostingList, ScoredInvertedIndex


def random_dataset(
    seed: int,
    n_base: int = 60,
    universe: int = 50,
    min_size: int = 2,
    max_size: int = 12,
    duplicate_rate: float = 0.3,
) -> Dataset:
    """A small random dataset with injected near-duplicates.

    Used across correctness tests: the duplicates create qualifying
    pairs at realistic thresholds, the random base records create
    near-misses.
    """
    rng = random.Random(seed)
    records: list[tuple[int, ...]] = []
    for _ in range(n_base):
        base = set(rng.sample(range(universe), rng.randint(min_size, max_size)))
        records.append(tuple(sorted(base)))
        if rng.random() < duplicate_rate:
            dup = set(base)
            for _ in range(rng.randint(0, 3)):
                if dup and rng.random() < 0.5:
                    dup.discard(rng.choice(sorted(dup)))
                else:
                    dup.add(rng.randrange(universe))
            if dup:
                records.append(tuple(sorted(dup)))
    return Dataset(records)


def posting_list(entries) -> PostingList:
    """A sealed posting list of ``(entity id, score)`` entries, ids
    increasing, built the way the joins build theirs: one
    ``ScoredInvertedIndex.insert`` per entity, then ``seal``."""
    index = ScoredInvertedIndex()
    for entity_id, score in entries:
        index.insert(entity_id, (0,), (score,), 1.0)
    index.seal()
    plist = index.get(0)
    return plist if plist is not None else PostingList().seal()


def random_strings(seed: int, n: int = 40, alphabet: str = "abcd", max_len: int = 12) -> list[str]:
    """Random short strings over a small alphabet (edit-distance tests)."""
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        length = rng.randint(0, max_len)
        out.append("".join(rng.choice(alphabet) for _ in range(length)))
    return out


@pytest.fixture
def small_dataset() -> Dataset:
    """Five hand-built records with two obvious matching pairs."""
    return Dataset(
        [
            (0, 1, 2, 3, 4, 5),
            (1, 2, 3, 4, 5, 6),
            (10, 11, 12, 13),
            (10, 11, 12, 14),
            (20, 21),
        ]
    )


@pytest.fixture
def dup_dataset() -> Dataset:
    return random_dataset(seed=123)
