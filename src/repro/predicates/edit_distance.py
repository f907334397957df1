"""Edit-distance predicate via the q-gram count bound (paper §5.2.3).

For strings ``r, s`` with ``edit_distance(r, s) <= k``:

* ``|length(r) - length(s)| <= k`` (the band filter), and
* the number of matching q-grams satisfies
  ``n12 >= max(length(r), length(s)) - 1 - q(k - 1)``.

The q-gram count predicate is evaluated as a set join after turning each
string into its *bag* of padded q-grams. Bags are encoded as sets by
numbering repeated occurrences (``("abc", 0), ("abc", 1), ...``), which
makes set intersection equal the bag match count — without this, strings
with repeated q-grams (e.g. ``"aaaa"``) could be missed and the join
would not be exact.

Because the bound is necessary but not sufficient, every candidate pair
is verified with a banded O(k·n) dynamic program on the original strings
(held as dataset payloads).

Note: ``T(r, s)`` can be non-positive for very short strings, in which
case qualifying pairs may share *no* q-grams and an index join cannot see
them. :func:`repro.core.join.edit_distance_join` handles that corner by
brute-force verification among short strings; the predicate alone is
exact whenever every record's string is longer than ``1 + q(k-1)``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

from repro.core.records import Dataset
from repro.predicates.base import BoundPredicate, SimilarityPredicate
from repro.text.editdist import banded_edit_distance
from repro.text.tokenizers import normalize, qgrams

__all__ = ["EditDistancePredicate", "numbered_qgrams", "qgram_dataset"]


def numbered_qgrams(text: str, q: int = 3) -> list[str]:
    """Padded q-grams with occurrence numbers: the bag-as-set encoding."""
    counts: Counter[str] = Counter()
    out = []
    for gram in qgrams(normalize(text), q=q, pad=True):
        out.append(f"{gram}\x00{counts[gram]}")
        counts[gram] += 1
    return out


def qgram_dataset(strings: Sequence[str], q: int = 3) -> Dataset:
    """Build the q-gram bag dataset for an edit-distance join.

    Strings are kept as payloads so the verifier can reach them.
    """
    return Dataset.from_token_lists(
        (numbered_qgrams(text, q=q) for text in strings), payloads=list(strings)
    )


class _BoundEditDistance(BoundPredicate):
    requires_payload_verification = True
    # verify() decides on the payload strings, not the q-gram match
    # weight; the signature prefilter's zero-weight reasoning does not
    # apply, so it must stay off.
    use_signature_prefilter = False
    # Every numbered q-gram scores 1.0, so the prefix-filter stack may
    # generate candidates from the q-gram count bound.
    unit_scores = True
    # The bitmap filter may still prune: ed <= k implies the q-gram sets
    # share at least threshold() = max(len_r, len_s) - 1 - q(k-1) grams
    # (§5.2.3), and with unit scores the match weight is the common-gram
    # count, so a weight cap below threshold() proves ed > k and the DP
    # would reject.
    bitmap_qgram_bound = True

    def __init__(self, dataset: Dataset, k: int, q: int):
        super().__init__(dataset)
        if dataset.payloads is None:
            raise ValueError(
                "edit-distance joins need the source strings as dataset payloads;"
                " build the dataset with qgram_dataset()"
            )
        self.k = k
        self.q = q
        self.band_radius = float(k)

    def string_length(self, rid: int) -> int:
        """Normalized length of the source string."""
        return len(normalize(str(self.dataset.payload(rid))))

    def band_key(self, rid: int) -> float:
        return float(self.string_length(rid))

    def score_vector(self, rid: int) -> tuple[float, ...]:
        return (1.0,) * len(self.dataset[rid])

    def threshold(self, norm_r: float, norm_s: float) -> float:
        # A padded string of length n has n + q - 1 q-grams, so the norm
        # (the q-gram count) determines the length.
        length_r = norm_r - (self.q - 1)
        length_s = norm_s - (self.q - 1)
        return max(length_r, length_s) - 1.0 - self.q * (self.k - 1)

    def verify(self, rid_r: int, rid_s: int) -> tuple[bool, float]:
        """Exact banded-DP verification on the source strings.

        The returned "similarity" is the edit distance itself (smaller is
        more similar); a value of ``k + 1`` stands for "greater than k".
        """
        keys = self._filled_band_keys()
        if abs(keys[rid_r] - keys[rid_s]) > self.k:
            return False, float(self.k + 1)
        a = normalize(str(self.dataset.payload(rid_r)))
        b = normalize(str(self.dataset.payload(rid_s)))
        distance = banded_edit_distance(a, b, self.k)
        return distance <= self.k, float(distance)


class EditDistancePredicate(SimilarityPredicate):
    """edit_distance(r, s) <= k over strings, via q-gram candidates.

    The dataset must be built with :func:`qgram_dataset` (or otherwise
    carry the source strings as payloads and numbered padded q-grams as
    tokens).
    """

    def __init__(self, k: int, q: int = 3):
        if k < 0:
            raise ValueError(f"edit-distance bound must be >= 0, got {k}")
        if q < 1:
            raise ValueError(f"q must be >= 1, got {q}")
        self.k = k
        self.q = q

    @property
    def name(self) -> str:
        return f"edit-distance(k={self.k}, q={self.q})"

    def bind(self, dataset: Dataset) -> _BoundEditDistance:
        return _BoundEditDistance(dataset, self.k, self.q)

    def short_string_cutoff(self) -> int:
        """Lengths at or below this can have non-positive thresholds.

        ``T(r, s) <= 0``  ⇔  ``max(len_r, len_s) <= 1 + q(k-1)``; pairs in
        that regime need brute-force handling for exactness.
        """
        return 1 + self.q * (self.k - 1)
