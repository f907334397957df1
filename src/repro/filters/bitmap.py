"""Bitmap-signature candidate pruning (the filters subsystem core).

Every record gets a fixed-width bitmap signature: a Python int used as a
bitset, with each token hashed to one bit position. From two signatures
and the precomputed set sizes a popcount gives a sound upper bound on
the intersection size — and, scaled by each record's maximum token
score, a sound upper bound on the pair's match weight. Candidates whose
weight cap cannot reach the pair threshold are rejected *before* the
exact verification that dominates probe-algorithm cost (the Bitmap
Filter idea of Sandes et al., arXiv:1711.07295, transplanted from
sequence alignment to set joins).

Soundness of the intersection bound: each token sets exactly one bit,
so every bit set in ``sig_r`` but absent from ``sig_s`` witnesses at
least one token of ``r`` that ``s`` cannot contain. Hence::

    |r \\ s| >= popcount(sig_r & ~sig_s) = pop_r - popcount(sig_r & sig_s)
    |r ∩ s| <= |r| - pop_r + popcount(sig_r & sig_s)

symmetrically in ``s``; the bound used is the min of the two. Note the
naive ``popcount(sig_r & sig_s)`` is *not* an upper bound on the
intersection (collisions can fold many common tokens onto one bit);
only the set-difference form above is sound.

The weight cap multiplies the intersection bound by the two records'
maximum token scores (all predicate scores in this package are
non-negative), so ``weight(r, s) <= ub * max_score_r * max_score_s``.
Whether "weight cap below threshold" licenses skipping verification is
predicate-specific: each predicate declares it with its flags, read by
:meth:`~repro.filters.pruner.BitmapPruner.for_join`.

Bit assignment must be a pure function of the token id — parallel
workers rebuild signatures in forked *and spawned* processes and their
reject decisions must agree with the parent's replay, so no dependence
on hash randomization is allowed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import or_

__all__ = [
    "BitmapFilterConfig",
    "SignatureStore",
    "bit_for_token",
    "resolve_bitmap_filter",
]

#: Fibonacci-hashing multiplier (odd, near 2**64 / golden ratio): spreads
#: consecutive token ids across bit positions far better than ``% width``.
_MIX = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def bit_for_token(token: int, width: int) -> int:
    """Deterministic bit position of ``token`` in a ``width``-bit signature."""
    return (((token + 1) * _MIX & _MASK64) >> 32) % width


@dataclass(frozen=True)
class BitmapFilterConfig:
    """Knobs for the bitmap candidate filter.

    Attributes:
        width: signature width in bits. Wider signatures collide less
            (tighter intersection bounds, more rejects) but cost more
            per popcount; 128 bits covers typical record sizes of
            20-60 tokens well.
        adaptive: when True, an :class:`~repro.filters.controller.AdaptiveController`
            judges the checks in consecutive windows of ``sample_size``
            and switches the filter off for the rest of the run at the
            first window whose reject rate is below ``min_reject_rate``
            — data where candidates almost always verify (e.g.
            MergeOpt's weight-complete candidates) then pay only one
            window, and a stream that stops paying later is cut then.
        sample_size: number of checks in one window.
        min_reject_rate: minimum reject rate per window that keeps the
            filter on. The default 0.05 reflects a check costing well
            under 1/20th of an exact verification.
    """

    width: int = 128
    adaptive: bool = True
    sample_size: int = 512
    min_reject_rate: float = 0.05

    def __post_init__(self):
        if self.width < 8:
            raise ValueError(f"bitmap width must be >= 8 bits, got {self.width}")
        if self.sample_size < 1:
            raise ValueError(
                f"adaptive sample size must be >= 1, got {self.sample_size}"
            )
        if not 0.0 <= self.min_reject_rate <= 1.0:
            raise ValueError(
                f"min reject rate must be in [0, 1], got {self.min_reject_rate}"
            )


def resolve_bitmap_filter(value) -> BitmapFilterConfig | None:
    """Normalize the public ``bitmap_filter=`` knob.

    Accepts ``None``/``False`` (off), ``True`` (defaults), an int
    (signature width), or a :class:`BitmapFilterConfig`.
    """
    if value is None or value is False:
        return None
    if value is True:
        return BitmapFilterConfig()
    if isinstance(value, BitmapFilterConfig):
        return value
    if isinstance(value, int):
        return BitmapFilterConfig(width=value)
    raise TypeError(
        "bitmap_filter must be None, a bool, an int width, or a"
        f" BitmapFilterConfig, got {type(value).__name__}"
    )


class SignatureStore:
    """Per-record ``(signature, popcount, size, max_score)`` entries.

    Built once per join (or maintained incrementally by
    :class:`~repro.core.service.SimilarityIndex`) and shared by every
    check. Entries are plain tuples so the hot path is two list loads,
    one AND, and one ``int.bit_count()``.
    """

    __slots__ = ("width", "_entries")

    def __init__(self, width: int):
        self.width = width
        self._entries: list[tuple[int, int, int, float]] = []

    def __len__(self) -> int:
        return len(self._entries)

    def entry(self, rid: int) -> tuple[int, int, int, float]:
        return self._entries[rid]

    def components_for(
        self, tokens, scores
    ) -> tuple[int, int, int, float]:
        """Build one entry without storing it (ephemeral probe records).

        Sound for probes whose unseen tokens got ephemeral ids: extra
        tokens only *add* bits, which can only loosen (never tighten)
        the intersection bound against indexed records.
        """
        width = self.width
        sig = 0
        for token in tokens:
            sig |= 1 << (((token + 1) * _MIX & _MASK64) >> 32) % width
        return (sig, sig.bit_count(), len(tokens), max(scores, default=0.0))

    @classmethod
    def build(cls, bound, width: int) -> "SignatureStore":
        """Signatures for every record of ``bound``'s dataset."""
        store = cls(width)
        store.extend_from(bound, 0)
        return store

    def extend_from(self, bound, start: int) -> None:
        """Append entries for records ``start..len(dataset)`` (incremental
        maintenance after :meth:`SimilarityIndex.add`).

        Equal to :meth:`components_for` per record, with each distinct
        token's bit hashed once per call and the OR over a record's
        bits folded in C (``reduce(or_, ...)``).
        """
        dataset = bound.dataset
        width = self.width
        records = [dataset[rid] for rid in range(start, len(dataset))]
        bit_of = {
            token: 1 << (((token + 1) * _MIX & _MASK64) >> 32) % width
            for token in set(chain.from_iterable(records))
        }.__getitem__
        append = self._entries.append
        for rid, tokens in enumerate(records, start):
            sig = reduce(or_, map(bit_of, tokens), 0)
            append(
                (
                    sig,
                    sig.bit_count(),
                    len(tokens),
                    max(bound.cached_score_vector(rid), default=0.0),
                )
            )

    # ------------------------------------------------------------------
    # The bound itself
    # ------------------------------------------------------------------

    def weight_cap(self, entry: tuple[int, int, int, float], rid_b: int) -> float:
        """Upper bound on the match weight of the record behind ``entry``
        (stored, or an unstored probe entry) and ``rid_b``; see module
        doc. The pruner's check loop computes the same cap inline; this
        scalar form is the reference its tests hold it to."""
        sig_a, pop_a, size_a, max_a = entry
        sig_b, pop_b, size_b, max_b = self._entries[rid_b]
        inter = (sig_a & sig_b).bit_count()
        ub = size_a - pop_a + inter
        ub_b = size_b - pop_b + inter
        if ub_b < ub:
            ub = ub_b
        if ub <= 0:
            return 0.0
        return ub * max_a * max_b
