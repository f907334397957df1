"""Top-level convenience API: ``similarity_join`` and friends.

Wraps the algorithm classes behind a single dispatch function so the
quickstart is one call::

    from repro import Dataset, JaccardPredicate, similarity_join
    result = similarity_join(dataset, JaccardPredicate(0.8))
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.approx.join import ApproxJoin
from repro.core.accumulator import resolve_merge_backend
from repro.storage.mmap_index import resolve_index_backend
from repro.core.cluster_mem import ClusterMemJoin
from repro.core.naive import NaiveJoin
from repro.core.pair_count import PairCountJoin
from repro.core.positional_filter import PositionalFilterJoin
from repro.core.prefix_filter import PrefixFilterJoin
from repro.core.probe_cluster import ProbeClusterJoin
from repro.core.probe_count import ProbeCountJoin
from repro.core.records import Dataset
from repro.core.results import JoinResult, MatchPair
from repro.core.word_groups import WordGroupsJoin
from repro.predicates.base import SimilarityPredicate
from repro.predicates.edit_distance import EditDistancePredicate, qgram_dataset

__all__ = [
    "ALGORITHMS",
    "edit_distance_join",
    "hamming_join",
    "make_algorithm",
    "similarity_join",
]

#: Per algorithm name: (class, base keyword arguments). ``ALGORITHMS``
#: below exposes the zero-argument factory view of the same registry.
_SPECS: dict[str, tuple[type, dict]] = {
    "naive": (NaiveJoin, {}),
    "probe-count": (ProbeCountJoin, {"variant": "basic"}),
    "probe-count-stopwords": (ProbeCountJoin, {"variant": "stopwords"}),
    "probe-count-optmerge": (ProbeCountJoin, {"variant": "optmerge"}),
    "probe-count-online": (ProbeCountJoin, {"variant": "online"}),
    "probe-count-sort": (ProbeCountJoin, {"variant": "sort"}),
    "pair-count": (PairCountJoin, {"optimized": False}),
    "pair-count-optmerge": (PairCountJoin, {"optimized": True}),
    "word-groups": (WordGroupsJoin, {"optimized": False}),
    "word-groups-optmerge": (WordGroupsJoin, {"optimized": True}),
    "probe-cluster": (ProbeClusterJoin, {}),
    "cluster-mem": (ClusterMemJoin, {}),
    "prefix-filter": (PrefixFilterJoin, {}),
    "positional-filter": (PositionalFilterJoin, {}),
    "approx": (ApproxJoin, {}),
}

#: Factory per algorithm name; every entry is a zero-argument callable
#: producing a fresh instance with the paper's default parameters
#: (``cluster-mem`` then takes its budget from the join context).
ALGORITHMS: dict[str, Callable[[], object]] = {
    name: (lambda _cls=cls, _base=base: _cls(**_base))
    for name, (cls, base) in _SPECS.items()
}


def make_algorithm(name: str, **kwargs):
    """Instantiate a join algorithm by its benchmark-table name.

    Extra keyword arguments are merged over the variant's defaults
    (``cluster-mem`` takes ``budget=`` or ``memory_fraction=``, see
    :class:`~repro.core.cluster_mem.ClusterMemJoin`).

    ``bitmap_filter=`` arms the candidate filter of :mod:`repro.filters`
    on any algorithm (``True``, an int signature width, or a
    :class:`~repro.filters.BitmapFilterConfig`); it is attached to the
    instance rather than passed to constructors so every algorithm
    accepts it uniformly. ``merge_backend=`` selects the probe-merge
    engine the same way (``"heap"``, ``"accumulator"``, or the adaptive
    default ``"auto"`` — see :mod:`repro.core.accumulator`).
    ``index_backend=`` picks where the probe index lives (``"memory"``,
    the zero-copy ``"mmap"`` columnar file of
    :mod:`repro.storage.mmap_index`, or ``"mmap-varbyte"``, the same
    file with varbyte-compressed id blocks; ``index_path=`` pins the
    file location instead of a temp file). Like the other knobs it is an
    instance attribute, so it flows through ``similarity_join`` and
    ``parallel_join`` unchanged.

    Raises :class:`~repro.runtime.errors.UnsupportedConfiguration` when
    the instance does not declare the requested ``index_backend`` or,
    for an algorithm that merges no posting lists, a ``merge_backend``
    other than ``"auto"`` (see
    :meth:`~repro.core.base.SetJoinAlgorithm.check_supported`).
    """
    bitmap_filter = kwargs.pop("bitmap_filter", None)
    merge_backend = resolve_merge_backend(kwargs.pop("merge_backend", None))
    index_backend = resolve_index_backend(kwargs.pop("index_backend", None))
    index_path = kwargs.pop("index_path", None)
    spec = _SPECS.get(name)
    if spec is None:
        raise ValueError(
            f"unknown algorithm {name!r}; expected one of {sorted(_SPECS)}"
        )
    cls, base = spec
    algorithm = cls(**{**base, **kwargs})
    algorithm.bitmap_filter = bitmap_filter
    algorithm.merge_backend = merge_backend
    algorithm.index_backend = index_backend
    algorithm.index_path = index_path
    algorithm.check_supported()
    return algorithm


def similarity_join(
    dataset: Dataset,
    predicate: SimilarityPredicate,
    algorithm: str = "probe-cluster",
    context=None,
    mode: str = "exact",
    **kwargs,
) -> JoinResult:
    """Similarity self-join with the named algorithm.

    Args:
        dataset: the tokenized records.
        predicate: the join condition (see :mod:`repro.predicates`).
        algorithm: a key of :data:`ALGORITHMS`.
        context: optional :class:`~repro.runtime.context.JoinContext`
            carrying a deadline, cancellation token, memory budget,
            and/or checkpointer (see ``docs/operations.md``).
        mode: ``"exact"`` (default) runs the named algorithm;
            ``"approx"`` runs the LSH candidate generator of
            :mod:`repro.approx` instead — its knobs (``target_recall=``,
            ``seed=``, ``leaf_size=``, ...) arrive via ``kwargs``, every
            emitted pair is still verified exactly (no false positives),
            and a fixed seed gives identical pairs. Passing a
            non-default ``algorithm`` together with ``mode="approx"``
            is a contradiction and raises.
        kwargs: algorithm construction options.

    Returns a :class:`~repro.core.results.JoinResult`.
    """
    if mode == "approx":
        if algorithm not in ("probe-cluster", "approx"):
            raise ValueError(
                f"mode='approx' selects its own candidate generator;"
                f" it cannot run algorithm {algorithm!r}"
            )
        algorithm = "approx"
    elif mode != "exact":
        raise ValueError(f"unknown join mode {mode!r}; expected 'exact' or 'approx'")
    return make_algorithm(algorithm, **kwargs).join(dataset, predicate, context=context)


def hamming_join(
    dataset: Dataset,
    k: int,
    algorithm: str = "probe-cluster",
    context=None,
    **kwargs,
) -> JoinResult:
    """Exact symmetric-difference join ``|r Δ s| <= k``.

    Index joins cannot surface qualifying pairs that share *no*
    elements (possible when ``|r| + |s| <= k``); those are brute-force
    verified among records of size <= k, keeping the join exact for any
    ``k``.
    """
    from repro.predicates.hamming import HammingPredicate

    predicate = HammingPredicate(k)
    result = similarity_join(
        dataset, predicate, algorithm=algorithm, context=context, **kwargs
    )
    small = [rid for rid in range(len(dataset)) if len(dataset[rid]) <= k]
    if small:
        _verify_corner(result, predicate.bind(dataset), small)
    return result


def edit_distance_join(
    strings: Sequence[str],
    k: int,
    q: int = 3,
    algorithm: str = "probe-cluster",
    context=None,
    **kwargs,
) -> JoinResult:
    """Exact edit-distance self-join over raw strings (§5.2.3).

    Builds the numbered-q-gram dataset, runs the set join for candidate
    generation, and — because the q-gram count bound is vacuous for very
    short strings (threshold <= 0) — additionally brute-force-verifies
    all pairs of strings no longer than ``1 + q(k-1)``, so the result is
    exact for any input.
    """
    predicate = EditDistancePredicate(k=k, q=q)
    dataset = qgram_dataset(strings, q=q)
    result = similarity_join(
        dataset, predicate, algorithm=algorithm, context=context, **kwargs
    )
    cutoff = predicate.short_string_cutoff()
    bound = predicate.bind(dataset)
    short = [
        rid
        for rid in range(len(dataset))
        if bound.string_length(rid) <= cutoff
    ]
    if short:
        _verify_corner(result, bound, short)
    return result


def _verify_corner(result: JoinResult, bound, rids: list[int]) -> None:
    """Brute-force every pair among ``rids`` the index join did not emit.

    The short-record corner of :func:`hamming_join` and
    :func:`edit_distance_join`: pairs the join already holds are
    skipped, every other pair is verified (and counted), and matches
    are appended to ``result`` in (smaller rid, larger rid) form.
    """
    seen = result.pair_set()
    for i, rid_a in enumerate(rids):
        for rid_b in rids[i + 1 :]:
            key = (min(rid_a, rid_b), max(rid_a, rid_b))
            if key in seen:
                continue
            result.counters.pairs_verified += 1
            ok, distance = bound.verify(key[0], key[1])
            if ok:
                seen.add(key)
                result.pairs.append(MatchPair(key[0], key[1], distance))
    result.counters.pairs_output = len(result.pairs)
