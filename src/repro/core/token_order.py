"""Global rarest-first token ordering for the prefix-filter stack.

The prefix-filter family (SSJoin, AllPairs, PPJoin/PPJoin+) needs every
record rewritten into one *canonical global order* — ascending document
frequency, rarest token first — so that "the first k tokens of r" is a
meaningful prefix to index and probe. This module computes that
ordering once per join and canonicalizes records into tuples of dense
*rank ids* (position of the token in the global order), which makes
every downstream operation integer-friendly:

* index keys are small dense ints,
* a record's canonical form is strictly increasing, so binary search
  works directly on it (the PPJoin+ suffix filter relies on this),
* comparing two tokens' global order is integer comparison.

Shared by :class:`~repro.core.prefix_filter.PrefixFilterJoin` and
:class:`~repro.core.positional_filter.PositionalFilterJoin`; kept free
of per-algorithm state so one instance could be reused across joins
over the same dataset.
"""

from __future__ import annotations

from repro.core.records import Dataset
from repro.runtime.errors import UnsupportedConfiguration

__all__ = ["TokenOrder", "ensure_unit_scores"]


class TokenOrder:
    """The canonical global token ordering of one dataset.

    ``rank[token]`` is the token's position in the ordering: ascending
    document frequency, ties broken by token id so the order is total
    and reproducible. Rarest first — rare tokens give short posting
    lists, which is the entire point of indexing only prefixes.
    """

    __slots__ = ("rank",)

    def __init__(self, rank: dict[int, int]):
        self.rank = rank

    @classmethod
    def for_dataset(cls, dataset: Dataset) -> "TokenOrder":
        """Build the ordering from the dataset's document frequencies."""
        frequency = dataset.frequency
        return cls(
            {
                token: position
                for position, token in enumerate(
                    sorted(frequency, key=lambda t: (frequency[t], t))
                )
            }
        )

    def canonicalize(self, record) -> tuple[int, ...]:
        """One record as a strictly increasing tuple of rank ids."""
        rank = self.rank
        return tuple(sorted(rank[token] for token in record))

    def canonicalize_all(self, dataset: Dataset) -> list[tuple[int, ...]]:
        """Every record of ``dataset``, canonicalized (indexed by rid)."""
        rank_of = self.rank.__getitem__
        return [tuple(sorted(map(rank_of, record))) for record in dataset.records]


def ensure_unit_scores(
    dataset: Dataset, bound, what: str = "prefix filtering here"
) -> None:
    """Raise unless every token score in the dataset is exactly 1.0.

    The prefix lemma counts *tokens*, so prefix/position/suffix
    filtering is sound only for unit-score predicates (overlap,
    Jaccard, Dice, overlap-coefficient, Hamming, and the q-gram bound
    of edit distance). Predicates declare this statically via the
    ``unit_scores`` attribute of
    :class:`~repro.predicates.base.BoundPredicate`; for predicates that
    don't (custom subclasses, weighted variants), every record is
    scanned — sampling a fixed head of the dataset would silently
    accept a corpus whose non-unit scores start past the sample.

    ``what`` names the rejecting component in the error message; the
    word-merged join shares this check with the algorithms declaring
    ``requires_scores = UNIT``.
    """
    if not bound.record_independent_scores:
        raise UnsupportedConfiguration(f"{what} supports unit-score predicates only")
    if getattr(bound, "unit_scores", False):
        return
    for rid in range(len(dataset)):
        if any(score != 1.0 for score in bound.cached_score_vector(rid)):
            raise UnsupportedConfiguration(
                f"{what} supports unit-score predicates only"
            )
