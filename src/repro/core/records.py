"""Dataset container: tokenized records over an integer vocabulary.

Every join algorithm in this package operates on a :class:`Dataset` — a
collection of records where each record is a sorted tuple of distinct
integer token ids. The mapping from token strings to ids (the
"vocabulary"), corpus frequencies, and optional raw payloads (the original
strings, needed by the edit-distance verifier) live here too.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Sequence

__all__ = ["Dataset", "record_ids"]


def record_ids(tokens: Iterable[str], vocabulary: dict[str, int]) -> tuple[int, ...]:
    """One record's sorted distinct token ids; a token ``vocabulary`` has
    not seen gets the next id (the vocabulary is extended in place)."""
    ids = set()
    for token in tokens:
        token_id = vocabulary.get(token)
        if token_id is None:
            token_id = vocabulary[token] = len(vocabulary)
        ids.add(token_id)
    return tuple(sorted(ids))


class Dataset:
    """An immutable collection of tokenized set-valued records.

    Args:
        records: one sorted tuple of distinct token ids per record.
        vocabulary: optional token-string -> token-id mapping.
        payloads: optional per-record raw payload (e.g. the source string
            for edit-distance joins, or the original structured record).

    Records keep their positional index as their RID; all join results
    refer to these RIDs.
    """

    def __init__(
        self,
        records: Sequence[tuple[int, ...]],
        vocabulary: dict[str, int] | None = None,
        payloads: Sequence | None = None,
    ):
        if payloads is not None and len(payloads) != len(records):
            raise ValueError(
                f"payloads length {len(payloads)} != records length {len(records)}"
            )
        self.records: list[tuple[int, ...]] = [tuple(r) for r in records]
        self.vocabulary = vocabulary
        self.payloads = list(payloads) if payloads is not None else None
        self._frequency: dict[int, int] | None = None
        self._id_to_token: dict[int, str] | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_token_lists(
        cls,
        token_lists: Iterable[Sequence[str]],
        payloads: Sequence | None = None,
        vocabulary: dict[str, int] | None = None,
    ) -> "Dataset":
        """Build a dataset from lists of token strings.

        Token ids are assigned in order of first appearance (extending a
        supplied ``vocabulary`` in place if one is given, so several
        datasets can share an id space). Duplicate tokens within a record
        are dropped — the paper treats records as sets.
        """
        vocab = vocabulary if vocabulary is not None else {}
        records = [record_ids(tokens, vocab) for tokens in token_lists]
        return cls(records, vocabulary=vocab, payloads=payloads)

    @classmethod
    def from_texts(
        cls,
        texts: Sequence[str],
        tokenizer: Callable[[str], Sequence[str]],
        vocabulary: dict[str, int] | None = None,
    ) -> "Dataset":
        """Tokenize raw strings; the strings are kept as payloads."""
        return cls.from_token_lists(
            (tokenizer(text) for text in texts), payloads=texts, vocabulary=vocabulary
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, rid: int) -> tuple[int, ...]:
        return self.records[rid]

    def __iter__(self):
        return iter(self.records)

    @property
    def frequency(self) -> dict[int, int]:
        """Document frequency of each token (lazily computed, cached)."""
        if self._frequency is None:
            freq: Counter[int] = Counter()
            for record in self.records:
                freq.update(record)
            self._frequency = dict(freq)
        return self._frequency

    def token_string(self, token_id: int) -> str:
        """Inverse vocabulary lookup (requires a vocabulary)."""
        if self.vocabulary is None:
            raise ValueError("dataset has no vocabulary")
        if self._id_to_token is None:
            self._id_to_token = {tid: tok for tok, tid in self.vocabulary.items()}
        return self._id_to_token[token_id]

    def payload(self, rid: int):
        """Raw payload of a record (requires payloads)."""
        if self.payloads is None:
            raise ValueError("dataset has no payloads")
        return self.payloads[rid]

    # ------------------------------------------------------------------
    # Statistics (Table 1 of the paper)
    # ------------------------------------------------------------------

    def total_word_occurrences(self) -> int:
        """Total posting entries a full record-level index would hold.

        This is the quantity ``W`` of §4: the memory unit in which the
        limited-memory budget is expressed.
        """
        return sum(len(record) for record in self.records)

    def average_set_size(self) -> float:
        """Average number of elements per set (Table 1, column 2)."""
        if not self.records:
            return 0.0
        return self.total_word_occurrences() / len(self.records)

    def n_distinct_tokens(self) -> int:
        """Number of distinct elements over all sets (Table 1, column 3)."""
        return len(self.frequency)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def head(self, n: int) -> "Dataset":
        """A dataset over the first ``n`` records (for size sweeps)."""
        payloads = self.payloads[:n] if self.payloads is not None else None
        return Dataset(self.records[:n], vocabulary=self.vocabulary, payloads=payloads)

    def reorder(self, permutation: Sequence[int]) -> "Dataset":
        """Dataset with records permuted; ``new[i] = old[permutation[i]]``."""
        if sorted(permutation) != list(range(len(self.records))):
            raise ValueError("permutation must be a rearrangement of all RIDs")
        payloads = None
        if self.payloads is not None:
            payloads = [self.payloads[old] for old in permutation]
        return Dataset(
            [self.records[old] for old in permutation],
            vocabulary=self.vocabulary,
            payloads=payloads,
        )

    def sort_permutation_by_size_desc(self) -> list[int]:
        """RID order of decreasing record size (paper §3.3 pre-sort).

        Ties broken by RID for determinism. Used with :meth:`reorder`;
        the generalized criterion (decreasing record norm, §5.1.2) is a
        predicate concern and handled by the join drivers.
        """
        return sorted(range(len(self.records)), key=lambda rid: (-len(self.records[rid]), rid))

    def __repr__(self) -> str:
        return (
            f"Dataset(n={len(self.records)}, avg_set_size={self.average_set_size():.1f},"
            f" distinct_tokens={self.n_distinct_tokens()})"
        )
