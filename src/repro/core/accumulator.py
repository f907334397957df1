"""Score-accumulator (ScanCount-style) merge backend.

The heap merges of :mod:`repro.core.heap_merge` and
:mod:`repro.core.merge_opt` pay per-element ``heapq`` overhead — a
tuple allocation, a comparison cascade, and a sift per posting entry.
When the probe's lists are long, counting is cheaper than merging: scan
each list once and accumulate every entity's weight keyed by entity id.
This module implements that backend with the same contracts as the heap
functions:

* :func:`accumulate_merge` ≡ :func:`~repro.core.heap_merge.heap_merge`
* :func:`accumulate_merge_opt` ≡ :func:`~repro.core.merge_opt.merge_opt`

**One scan, one screen.** When every contribution of a probe is
exactly 1.0 — probe score 1.0 and every list's score range pinned to
``[1.0, 1.0]`` by its ``min_score``/``max_score`` — the weight of an
entity is the number of lists holding it, so the scan is one C-level
``Counter`` over the chained id columns and the weight is
``float(count)`` (bit-identical to summing 1.0s). Weighted probes sum
``probe_score * score`` into a dict. One plain loop then screens every
scanned entity once, inline: the band test against the probe's
:class:`~repro.predicates.base.BandWindow` keys, the
``candidates_checked``/``accum_writes``/``list_items_touched``
bookkeeping, the pair limit ``T(r, s) - WEIGHT_EPS`` read from the
probe's :class:`~repro.predicates.base.PairThreshold` once per distinct
partner norm, and the Algorithm 1 first bound ``weight +
cumulative[k-1] >= limit``. Only the survivors are sorted. A plain
callable filter or threshold (unit tests) is wrapped once per call to
the same fields, never served by a second loop.

**Rare-word skip path.** :func:`accumulate_merge_opt` reuses
:func:`~repro.core.merge_opt.split_lists` (§3.1 Algorithm 1): only the
short S lists are scanned; the screen's survivors are then completed
against the long L lists smallest-first with the same early-termination
bound the heap path uses. Each completion search is a C ``bisect_left``
resuming at the list's frontier (a mapped varbyte column supplies its
own ``bisect_from`` that bisects the block-first column and decodes one
block). ``counters.gallop_steps`` reports the bracket doublings a
galloping search from the same frontier would take —
``(d - 1).bit_length()`` for a jump of ``d > 1`` positions — so the
counter is an exact function of the positions found. An entity the
screen drops fails the first bound, so it is never searched and never
a candidate, on either backend.

When every list of the probe is unit (S and L alike), the completion
takes a loop that tests the bound only after a miss. The weights are
then int counts and ``cumulative[i] == float(i + 1)`` exactly, so all
of the bound's arithmetic is exact: a hit in list ``i`` turns
``weight + cumulative[i]`` into ``(weight + 1) + i``, the same number,
which already passed. Only a miss can make the next test fail, and the
test after a miss in list ``i``, ``weight + i < limit``, is the one the
general loop makes before list ``i - 1``. The lists searched, and the
positions found, are the same, so ``binary_searches`` and
``gallop_steps`` are too. A float weight (weighted S lists over unit L
lists) keeps the general loop: ``(w + 1.0) + i`` and ``w + (i + 1.0)``
can round one ulp apart, and a limit between them would tell the two
loops apart.

**Result identity.** For a given entity, both backends sum the same
contributions in the same order — the heap pops equal RIDs in
increasing list index, the scan visits lists in that same order — so
accumulated weights are bit-identical, and the returned candidate sets
are identical pair-for-pair (property tests pin this across
predicates, serial and sharded, with and without the bitmap filter).

Counter mapping: ``list_items_touched``, ``candidates_checked`` and
``binary_searches`` mean exactly what they mean on the heap path and
take identical values, so ``total_work()`` stays comparable; the heap
counters (``heap_pops``/``heap_pushes``) stay zero — that delta *is*
the measured saving. The accumulator's own raw volumes are reported
separately as ``accum_scans`` (postings scanned) and ``accum_writes``
(distinct accepted entities), both excluded from ``total_work()``, see
:class:`~repro.utils.counters.CostCounters`.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import Counter
from collections.abc import Callable
from functools import partial
from itertools import chain

from repro.core.inverted_index import PostingList
from repro.core.merge_opt import split_lists
from repro.predicates.base import WEIGHT_EPS, BandWindow, PairThreshold
from repro.utils.counters import CostCounters

__all__ = [
    "AUTO_MIN_ENTRIES",
    "MERGE_BACKENDS",
    "accumulate_merge",
    "accumulate_merge_opt",
    "resolve_merge_backend",
    "use_accumulator",
]

#: Valid values of the ``merge_backend`` knob.
MERGE_BACKENDS = ("auto", "heap", "accumulator")

#: Under ``merge_backend="auto"``, probes whose lists hold at least this
#: many total entries use the accumulator; smaller probes stay on the
#: heap, whose setup cost is lower. The crossover is flat in practice —
#: tiny probes are cheap either way — so one pinned constant beats a
#: per-dataset tuning knob.
AUTO_MIN_ENTRIES = 32


def resolve_merge_backend(value) -> str:
    """Validate a ``merge_backend`` knob value (None means ``auto``)."""
    if value is None:
        return "auto"
    if value not in MERGE_BACKENDS:
        raise ValueError(
            f"unknown merge backend {value!r}; expected one of {MERGE_BACKENDS}"
        )
    return value


def use_accumulator(backend: str, lists: list[tuple[PostingList, float]]) -> bool:
    """Decide the backend for one probe from its list-size stats."""
    if backend == "heap":
        return False
    if backend == "accumulator":
        return True
    total = 0
    for plist, _probe_score in lists:
        total += len(plist.ids)
    return total >= AUTO_MIN_ENTRIES


def accumulate_merge(
    lists: list[tuple[PostingList, float]],
    threshold_of: Callable[[int], float],
    counters: CostCounters,
    accept: Callable[[int], bool] | None = None,
) -> list[tuple[int, float]]:
    """Merge posting lists by counting; same contract as ``heap_merge``.

    Args:
        lists: ``(posting_list, probe_score)`` pairs from the index probe.
        threshold_of: maps an entity id to its pair threshold ``T(r, s)``.
        counters: work counters to update.
        accept: optional id-level filter; filtered ids are skipped.

    Returns candidates with ``weight >= T(r, s) - eps`` in increasing id
    order — the same candidates, with bit-identical weights, that
    ``heap_merge`` returns.
    """
    if not lists:
        return []
    survivors, _unit = _screen(lists, 0.0, threshold_of, accept, counters)
    return [(entity, float(weight)) for entity, weight, _limit in survivors]


def accumulate_merge_opt(
    lists: list[tuple[PostingList, float]],
    index_threshold: float,
    threshold_of: Callable[[int], float],
    counters: CostCounters,
    accept: Callable[[int], bool] | None = None,
) -> list[tuple[int, float]]:
    """Threshold-optimized counting merge; same contract as ``merge_opt``.

    S lists (short) are scanned and screened; each survivor is then
    completed against the L lists (long) smallest-first with
    frontier-resuming binary searches, bailing out early once even full
    membership in the remaining L lists cannot reach ``T(r, m)`` —
    exactly Algorithm 1 steps 8–11, with the heap replaced by the scan.
    """
    if not lists:
        return []
    ordered, cumulative, k = split_lists(lists, index_threshold)
    if k == len(ordered):
        # Entities appearing only in L lists cannot reach the threshold.
        return []
    survivors, unit = _screen(
        ordered[k:], cumulative[k - 1] if k else 0.0, threshold_of, accept, counters
    )
    if k == 0:
        return [(entity, float(weight)) for entity, weight, _limit in survivors]

    # Per-L-list search state: survivors are visited in increasing
    # order, so each search resumes where the previous one ended.
    search = []
    ids_of = []
    scores_of = []
    probe_of = []
    sizes = []
    for plist, probe_score in ordered[:k]:
        ids = plist.ids
        bisect_from = getattr(ids, "bisect_from", None)
        search.append(bisect_from or partial(bisect_left, ids))
        ids_of.append(ids)
        scores_of.append(plist.scores)
        probe_of.append(probe_score)
        sizes.append(len(ids))
    search_from = [0] * k
    searches = 0
    gallop_steps = 0
    candidates: list[tuple[int, float]] = []
    append = candidates.append
    if unit and _all_unit(ordered[:k]):
        # Int weights and cumulative[i] == i + 1: only a miss can fail
        # the bound (see "Rare-word skip path" above).
        for entity, weight, limit in survivors:
            for i in range(k - 1, -1, -1):
                searches += 1
                frontier = search_from[i]
                position = search[i](entity, frontier)
                jump = position - frontier
                if jump > 1:
                    gallop_steps += (jump - 1).bit_length()
                search_from[i] = position
                if position < sizes[i] and ids_of[i][position] == entity:
                    weight += 1
                elif weight + i < limit:
                    break
            if weight >= limit:
                append((entity, float(weight)))
    else:
        for entity, weight, limit in survivors:
            for i in range(k - 1, -1, -1):
                if weight + cumulative[i] < limit:
                    break
                searches += 1
                frontier = search_from[i]
                position = search[i](entity, frontier)
                jump = position - frontier
                if jump > 1:
                    gallop_steps += (jump - 1).bit_length()
                search_from[i] = position
                if position < sizes[i] and ids_of[i][position] == entity:
                    weight += probe_of[i] * scores_of[i][position]
            if weight >= limit:
                append((entity, float(weight)))
    counters.binary_searches += searches
    counters.gallop_steps += gallop_steps
    return candidates


# ----------------------------------------------------------------------
# Scan and screen (shared by both entry points)
# ----------------------------------------------------------------------


def _screen(lists, first_bound, threshold_of, accept, counters):
    """Scan ``lists`` and screen each scanned entity once.

    Returns ``(survivors, unit)``. The survivors are ``(entity, weight,
    limit)`` in increasing entity order: the entities ``accept`` passes
    whose scanned weight plus ``first_bound`` (what the unscanned lists
    can still add) reaches ``limit = (T(r, s) - cut) - WEIGHT_EPS``.
    ``unit`` says every contribution was 1.0; ``weight`` is then an int
    count (callers emit ``float(weight)``), a float sum otherwise.
    Contributions are non-negative, so an entity screened out could
    never have reached its limit.
    """
    columns = [plist.ids for plist, _probe_score in lists]
    scans = sum(map(len, columns))
    counts = None
    unit = _all_unit(lists)
    if unit:
        weights = counts = Counter(chain.from_iterable(columns))
    else:
        weights = {}
        get = weights.get
        for plist, probe_score in lists:
            for entity, score in zip(plist.ids, plist.scores):
                weights[entity] = get(entity, 0.0) + probe_score * score
    if not isinstance(threshold_of, PairThreshold):
        threshold_of = _per_entity(threshold_of)
    threshold = threshold_of.threshold
    norm_r = threshold_of.norm_r
    norms = threshold_of.norms
    cut = threshold_of.cut
    band = accept is not None
    if band:
        if not isinstance(accept, BandWindow):
            accept = _verdict_window(accept)
        keys = accept.keys
        key_r = accept.key_r
        radius = accept.radius
        if counts is None:
            counts = Counter(chain.from_iterable(columns))
        touched = 0
    else:
        touched = scans
    rejected = 0
    # partner norm -> (T(r, s) - cut) - WEIGHT_EPS
    limits: dict[float, float] = {}
    survivors = []
    keep = survivors.append
    for entity, weight in weights.items():
        if band:
            # ``not <=`` so that a NaN gap rejects, as the window does.
            if not abs(keys[entity] - key_r) <= radius:
                rejected += 1
                continue
            touched += counts[entity]
        norm_s = norms[entity]
        limit = limits.get(norm_s)
        if limit is None:
            limit = limits[norm_s] = threshold(norm_r, norm_s) - cut - WEIGHT_EPS
        if weight + first_bound >= limit:
            keep((entity, weight, limit))
    accepted = len(weights) - rejected
    counters.accum_scans += scans
    counters.accum_writes += accepted
    counters.list_items_touched += touched
    counters.candidates_checked += accepted
    survivors.sort()
    return survivors, unit


def _all_unit(lists) -> bool:
    """Whether every contribution of ``lists`` is exactly 1.0: probe
    score 1.0 and each list's scores pinned to ``[1.0, 1.0]``."""
    for plist, probe_score in lists:
        if not (
            probe_score == 1.0 and plist.min_score == 1.0 and plist.max_score == 1.0
        ):
            return False
    return True


#: ``_ENTITIES[entity] == entity``: the norms of :func:`_per_entity`.
_ENTITIES = range(sys.maxsize)


def _per_entity(threshold_of) -> PairThreshold:
    """A plain ``entity -> threshold`` callable as a
    :class:`PairThreshold` whose "norm" is the entity itself."""
    return PairThreshold(lambda _norm_r, entity: threshold_of(entity), 0.0, _ENTITIES)


def _verdict_window(accept) -> BandWindow:
    """A plain ``entity -> bool`` filter as a :class:`BandWindow`: key
    0.0 for accepted entities, 1.0 for the rest, radius 0."""
    return BandWindow(_Verdicts(accept), 0.0, 0.0)


class _Verdicts:
    """``accept`` as a key sequence for :func:`_verdict_window`."""

    __slots__ = ("accept",)

    def __init__(self, accept):
        self.accept = accept

    def __getitem__(self, entity: int) -> float:
        return 0.0 if self.accept(entity) else 1.0
