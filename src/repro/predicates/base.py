"""Predicate protocol: the paper's general optimization framework (§5.1).

An (unbound) :class:`SimilarityPredicate` describes a join condition; at
join time it is bound to a :class:`~repro.core.records.Dataset`, producing
a :class:`BoundPredicate` that precomputes per-record score vectors and
norms. The join algorithms only ever talk to the bound form.

Floating point discipline: candidate generation inside the merge
algorithms accepts candidates whose *accumulated* match weight is within
``WEIGHT_EPS`` of the threshold, and the final decision for every emitted
pair is made by :meth:`BoundPredicate.verify`, which recomputes the match
weight in a canonical token order. The naive baseline uses the same
``verify``, so all algorithms agree bit-for-bit on the output set.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from dataclasses import dataclass

from repro.core.records import Dataset

__all__ = [
    "WEIGHT_EPS",
    "BandFilter",
    "BandWindow",
    "BoundPredicate",
    "PairThreshold",
    "SimilarityPredicate",
]

# Accumulated-vs-canonical match weights differ only by float summation
# order; this slack makes candidate generation a guaranteed superset.
WEIGHT_EPS = 1e-7


@dataclass(frozen=True)
class BandFilter:
    """A filter of the form ``|l(r) - l(s)| <= radius`` (§5.3).

    ``keys[rid]`` holds ``l(rid)`` for every record. The same object
    drives both the in-merge filter (applied when a frontier record is
    pushed into the heap, §5 "Additional Filters") and the band-join
    partitioning algorithms of §5.3.

    ``keys`` is the bound predicate's key cache itself, read-only here:
    filled by the first :meth:`BoundPredicate.band_filter` on a static
    dataset, grown one key per ``add`` by :meth:`BoundPredicate.extend_to`.
    ``entity_keys`` holds the keys by indexed entity when entities are
    not record ids (:meth:`for_order`), or the indexed records' plain
    key list when ``keys`` is a query's per-probe overlay; None means
    ``keys``.
    """

    keys: Sequence[float]
    radius: float
    entity_keys: Sequence[float] | None = None

    def accepts(self, rid_a: int, rid_b: int) -> bool:
        """True when the pair survives the filter."""
        return abs(self.keys[rid_a] - self.keys[rid_b]) <= self.radius + 1e-12

    def for_order(self, order: Sequence[int]) -> "BandFilter":
        """This filter over an index keyed by processing position,
        ``order[pos]`` being the record id at each position."""
        keys = self.keys
        return BandFilter(keys, self.radius, [keys[rid] for rid in order])

    def acceptor(self, rid: int) -> "BandWindow":
        """The in-merge filter for probe record ``rid``: a window that
        maps an indexed entity to "the pair with ``rid`` survives"."""
        keys = self.keys
        entity_keys = self.entity_keys
        return BandWindow(
            keys if entity_keys is None else entity_keys,
            keys[rid],
            self.radius + 1e-12,
        )


class BandWindow:
    """The band around one probe: accepts entity ``s`` when
    ``abs(keys[s] - key_r) <= radius``.

    Callable per entity (the heap merges); the score accumulator reads
    ``keys``/``key_r``/``radius`` and tests every scanned entity inline.
    """

    __slots__ = ("keys", "key_r", "radius")

    def __init__(self, keys: Sequence[float], key_r: float, radius: float):
        self.keys = keys
        self.key_r = key_r
        self.radius = radius

    def __call__(self, entity: int) -> bool:
        return abs(self.keys[entity] - self.key_r) <= self.radius


class PairThreshold:
    """``T(r, s) - cut`` for one probe ``r``, as a function of the
    indexed entity ``s``.

    ``norms[entity]`` is the entity's norm — the bound predicate's
    gap-free norm cache (:meth:`BoundPredicate.filled_norms`) when
    entities are record ids, norms by processing position or cluster
    norms otherwise. Callable per entity (the heap merges); the score
    accumulator reads the fields and computes each limit once per
    distinct partner norm. ``cut`` is subtracted before any epsilon.
    """

    __slots__ = ("threshold", "norm_r", "norms", "cut")

    def __init__(
        self,
        threshold: Callable[[float, float], float],
        norm_r: float,
        norms: Sequence[float],
        cut: float = 0.0,
    ):
        self.threshold = threshold
        self.norm_r = norm_r
        self.norms = norms
        self.cut = cut

    def __call__(self, entity: int) -> float:
        return self.threshold(self.norm_r, self.norms[entity]) - self.cut


class BoundPredicate(ABC):
    """A similarity predicate bound to a concrete dataset.

    Subclasses implement :meth:`score_vector` and :meth:`threshold`; the
    base class derives norms, canonical match weights, verification, and
    the index-level threshold bound from those.
    """

    #: True when threshold satisfaction is necessary but not sufficient
    #: (edit distance: q-gram count bound) and verify() needs payloads.
    requires_payload_verification = False

    #: True when score(w, r) depends only on w (overlap, Jaccard, ...).
    #: Word-Groups requires this — a word group has one weight per word.
    record_independent_scores = True

    #: True when every score is exactly 1.0, so the match weight *is*
    #: the intersection size and a record's norm is its size. The
    #: prefix-filter stack (prefix/position/suffix filters) requires
    #: this — its lemmas count tokens, not weights. Declared statically
    #: here (instance attribute where it depends on construction, e.g.
    #: weighted Jaccard); predicates that leave it False are checked by
    #: a full score scan in
    #: :func:`repro.core.token_order.ensure_unit_scores`.
    unit_scores = False

    #: True when verify is the match-weight threshold test, so a bound
    #: on the weight below the threshold proves the pair fails. It
    #: licenses the 64-bit word-signature prefilter of
    #: :meth:`SetJoinAlgorithm._verify_pair` (zero common tokens =>
    #: weight zero => fails any positive threshold) and the bitmap
    #: filter (its weight cap is such a bound; see
    #: :meth:`~repro.filters.BitmapPruner.for_join`). Jaccard, Dice,
    #: overlap-coefficient and Hamming rewrite their measure as this
    #: test with a threshold on the two norms (paper Table 1).
    #: Predicates that verify on payloads (edit distance) opt out.
    use_signature_prefilter = True

    #: True when ``threshold(r, s)`` ignores the norms, so the bitmap
    #: filter evaluates it once per run instead of once per check.
    constant_threshold = False

    #: Radius of the §5.3 band filter ``|l(r) - l(s)| <= radius``, or
    #: None when the predicate has no band filter. Predicates that set
    #: it implement :meth:`band_key` as ``l``.
    band_radius: float | None = None

    def __init__(self, dataset: Dataset):
        self.dataset = dataset
        self._score_vectors: list[tuple[float, ...] | None] = [None] * len(dataset)
        self._norms: list[float | None] = [None] * len(dataset)
        self._norms_filled = 0  # _norms[:_norms_filled] holds no None
        self._score_maps: list[dict[int, float] | None] = [None] * len(dataset)
        self._signatures: list[int | None] = [None] * len(dataset)
        self._band_keys: list[float] = []  # gap-free prefix of band_key(rid)

    # ------------------------------------------------------------------
    # Abstract surface
    # ------------------------------------------------------------------

    @abstractmethod
    def score_vector(self, rid: int) -> tuple[float, ...]:
        """``score(w, r)`` for each token of record ``rid``, in token order."""

    @abstractmethod
    def threshold(self, norm_r: float, norm_s: float) -> float:
        """``T(r, s)`` as a non-decreasing function of the two norms."""

    def band_key(self, rid: int) -> float:
        """``l(rid)`` of the band filter; a function of the record alone
        (the radius carries the threshold)."""
        raise NotImplementedError(f"{type(self).__name__} has no band filter")

    def log_norm(self, rid: int) -> float:
        """``log ||rid||``: the size-ratio band key of Jaccard and Dice."""
        norm = self.norm(rid)
        return math.log(norm) if norm > 0 else -math.inf

    def band_filter(self) -> BandFilter | None:
        """The band filter over the key cache (None without a radius).

        Fills missing keys: all of them on the first call over a static
        dataset; none while :meth:`extend_to` keeps a growing one filled.
        """
        radius = self.band_radius
        if radius is None:
            return None
        return BandFilter(self._filled_band_keys(), radius)

    def _filled_band_keys(self) -> Sequence[float]:
        keys = self._band_keys
        n_records = len(self.dataset)
        if len(keys) < n_records:
            keys.extend(self.band_key(rid) for rid in range(len(keys), n_records))
        return keys

    def approx_jaccard_floor(self) -> float | None:
        """Optional token-Jaccard lower bound for qualifying pairs.

        Consumed by :mod:`repro.approx` to size its LSH candidate
        generator. ``None`` (the default) asks the planner to derive a
        bound itself — sound for unit-score predicates, a conservative
        default otherwise. Weighted predicates with a better analytic
        handle (TF-IDF cosine) override this; an override is treated as
        a *heuristic* floor unless the derivation is exact for the
        weighting in use.
        """
        return None

    # ------------------------------------------------------------------
    # Derived machinery
    # ------------------------------------------------------------------

    def extend_to(self, n_records: int) -> None:
        """Grow the per-record caches to cover a grown dataset.

        Used by the incremental :class:`~repro.core.service.SimilarityIndex`
        between appends; valid when scores of existing records are
        unaffected by the new ones (corpus-statistic predicates like
        TF-IDF cosine should rebind instead).
        """
        missing = n_records - len(self._score_vectors)
        if missing > 0:
            self._score_vectors.extend([None] * missing)
            self._norms.extend([None] * missing)
            self._score_maps.extend([None] * missing)
            self._signatures.extend([None] * missing)
        self.filled_norms()
        if self.band_radius is not None:
            self._filled_band_keys()

    def cached_score_vector(self, rid: int) -> tuple[float, ...]:
        """Memoized :meth:`score_vector`."""
        vector = self._score_vectors[rid]
        if vector is None:
            vector = tuple(self.score_vector(rid))
            self._score_vectors[rid] = vector
        return vector

    def score_map(self, rid: int) -> dict[int, float]:
        """Memoized token -> score mapping for record ``rid``."""
        mapping = self._score_maps[rid]
        if mapping is None:
            tokens = self.dataset[rid]
            mapping = dict(zip(tokens, self.cached_score_vector(rid)))
            self._score_maps[rid] = mapping
        return mapping

    def signature(self, rid: int) -> int:
        """64-bit Bloom-style word signature of record ``rid``, memoized.

        Bit ``token % 64`` is set for every token; two records with a
        common token therefore always share a signature bit, so a
        disjoint AND proves an empty intersection (the converse does not
        hold — collisions only cost a wasted full verification).
        """
        value = self._signatures[rid]
        if value is None:
            value = 0
            for token in self.dataset[rid]:
                value |= 1 << (token & 63)
            self._signatures[rid] = value
        return value

    def norm(self, rid: int) -> float:
        """``||r|| = sum(score(w, r)^2)`` (paper Eq. 1), memoized."""
        value = self._norms[rid]
        if value is None:
            if self.unit_scores:
                # The exact sum, without a score-vector pass per record.
                value = float(len(self.dataset[rid]))
            else:
                value = sum(s * s for s in self.cached_score_vector(rid))
            self._norms[rid] = value
        return value

    def filled_norms(self) -> Sequence[float]:
        """The norm cache with no gaps: ``norms[rid] == norm(rid)`` for
        every record. Fills missing norms — all of them on the first
        call over a static dataset; none while :meth:`extend_to` keeps
        a growing one filled."""
        n_records = len(self.dataset)
        if self._norms_filled < n_records:
            norm = self.norm
            for rid in range(self._norms_filled, n_records):
                norm(rid)
            self._norms_filled = n_records
        return self._norms

    def index_threshold(self, norm_r: float, min_norm: float) -> float:
        """``T(r, I) = min_s T(r, s) = T(r, minS)`` by monotonicity (§5.1.1)."""
        return self.threshold(norm_r, min_norm)

    def match_weight(self, rid_r: int, rid_s: int) -> float:
        """Canonical ``sum(score(w, r) * score(w, s))`` over common words.

        Iterates the smaller record against the larger one's score map so
        the summation order is deterministic regardless of which algorithm
        asks. With unit scores the weight is the common-token count (a
        sum of 1.0s is exact, so counting is bit-identical).
        """
        if len(self.dataset[rid_r]) > len(self.dataset[rid_s]):
            rid_r, rid_s = rid_s, rid_r
        other = self.score_map(rid_s)
        tokens = self.dataset[rid_r]
        if self.unit_scores:
            return float(sum(map(other.__contains__, tokens)))
        total = 0.0
        scores = self.cached_score_vector(rid_r)
        for token, score in zip(tokens, scores):
            score_s = other.get(token)
            if score_s is not None:
                total += score * score_s
        return total

    def satisfied(self, weight: float, norm_r: float, norm_s: float) -> bool:
        """Threshold test with the canonical float tolerance."""
        return weight >= self.threshold(norm_r, norm_s) - WEIGHT_EPS / 10

    def verify(self, rid_r: int, rid_s: int) -> tuple[bool, float]:
        """Exact decision for a candidate pair.

        Returns ``(matches, natural_similarity)``. The default recomputes
        the canonical match weight and applies threshold + band filter;
        predicates with a necessary-but-insufficient bound (edit distance)
        override this to run their exact verifier.
        """
        radius = self.band_radius
        if radius is not None:
            keys = self._filled_band_keys()
            # ``not <=`` so that a NaN gap (two empty records) rejects.
            if not abs(keys[rid_r] - keys[rid_s]) <= radius + 1e-12:
                return False, 0.0
        weight = self.match_weight(rid_r, rid_s)
        ok = self.satisfied(weight, self.norm(rid_r), self.norm(rid_s))
        return ok, self.natural_similarity(rid_r, rid_s, weight)

    def natural_similarity(self, rid_r: int, rid_s: int, weight: float) -> float:
        """Convert a match weight into the predicate's natural measure.

        Default: the match weight itself (overlap-style predicates).
        """
        return weight


class SimilarityPredicate(ABC):
    """An unbound predicate: a join condition awaiting a dataset."""

    @abstractmethod
    def bind(self, dataset: Dataset) -> BoundPredicate:
        """Bind to a dataset, precomputing whatever corpus stats we need."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Short identifier used in benchmark tables."""
