"""Seeded workload inputs: every dataset and stream is a pure function of
``(workload, seed)``.

Nothing here reads the clock, the environment, or ``hash()`` of a
string (salted per process); randomness comes only from
``random.Random`` instances seeded from the workload seed, and the
corpora come from :mod:`repro.datagen`, whose generators are pure
functions of ``(n, seed)``. The program under test only ever receives
what these functions return.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import accumulate

from repro.core.records import Dataset
from repro.datagen import address_all_3grams, citation_all_3grams, citation_all_words

#: Default seed; equal to ``benchmarks/harness.py``'s ``BENCHMARK_SEED``
#: default, so seed 42 here and in the per-figure benchmarks build the
#: same corpora.
DEFAULT_SEED = 42

GENERATORS = {
    "citation-3grams": citation_all_3grams,
    "address-3grams": address_all_3grams,
    "citation-words": citation_all_words,
}


def _rng(seed: int, stream: str) -> random.Random:
    """An independent, reproducible RNG per (seed, stream name)."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def corpus(name: str, n: int, seed: int) -> Dataset:
    """A fresh (uncached) corpus from :mod:`repro.datagen`."""
    return GENERATORS[name](n, seed=seed)


def sub_seeds(seed: int, count: int) -> list[int]:
    """Seeds of a workload's corpora; the first is the run's own seed."""
    return [seed + i * 100_003 for i in range(count)]


def drop_one(record: tuple[int, ...], position: int) -> tuple[int, ...]:
    """The record with one token removed: a near-duplicate query."""
    if len(record) < 2:
        return record
    position %= len(record)
    return record[:position] + record[position + 1:]


@dataclass(frozen=True)
class MixedInputs:
    """serve-mixed: indexed corpus plus one op stream per client.

    Each stream entry is ``("query", tokens)`` or ``("add", tokens)``.
    """

    records: tuple[tuple[int, ...], ...]
    streams: tuple[tuple[tuple[str, tuple[int, ...]], ...], ...]


@dataclass(frozen=True)
class RemoteInputs:
    """serve-remote: indexed corpus plus one stream of distinct queries."""

    records: tuple[tuple[int, ...], ...]
    queries: tuple[tuple[int, ...], ...]


def mixed_inputs(
    seed: int,
    n: int,
    holdout: int,
    clients: int,
    stream_length: int,
    add_share: float,
    zipf_s: float,
) -> MixedInputs:
    """Zipf-repeated near-duplicate queries beside adds of held-out records.

    The corpus is generated at ``n + holdout`` records; the first ``n``
    are indexed before the stream, the rest are what the clients add.
    Query popularity follows a Zipf law over a seeded permutation of
    the indexed records, so the hot set is not simply the first rids.
    A record always drops the same token, so repeats of one record are
    identical queries (and can hit a result cache).
    """
    data = corpus("citation-words", n + holdout, seed)
    records = tuple(tuple(record) for record in data.records)
    indexed, held = records[:n], records[n:]
    order = list(range(n))
    _rng(seed, "mixed/popularity").shuffle(order)
    drop_rng = _rng(seed, "mixed/drop")
    drops = [drop_rng.randrange(1 << 30) for _ in range(n)]
    cumulative = list(accumulate(1.0 / (k + 1) ** zipf_s for k in range(n)))
    streams = []
    for client in range(clients):
        rng = _rng(seed, f"mixed/client-{client}")
        adds = held[client::clients]
        next_add = 0
        stream = []
        for _ in range(stream_length):
            if adds and rng.random() < add_share:
                stream.append(("add", adds[next_add % len(adds)]))
                next_add += 1
            else:
                rank = rng.choices(range(n), cum_weights=cumulative)[0]
                rid = order[rank]
                stream.append(("query", drop_one(indexed[rid], drops[rid])))
        streams.append(tuple(stream))
    return MixedInputs(records=indexed, streams=tuple(streams))


def remote_inputs(seed: int, n: int, passes: int) -> RemoteInputs:
    """Distinct read-only queries: every record once per pass, shuffled,
    each pass dropping a different token."""
    data = corpus("citation-words", n, seed)
    records = tuple(tuple(record) for record in data.records)
    rng = _rng(seed, "remote/queries")
    queries = []
    for p in range(passes):
        order = list(range(n))
        rng.shuffle(order)
        queries.extend(drop_one(records[rid], p + rid) for rid in order)
    return RemoteInputs(records=records, queries=tuple(queries))


def digest(obj) -> str:
    """Content hash of nested tuples/lists of ints and strings."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()
