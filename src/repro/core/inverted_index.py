"""Scored inverted index (paper §2.1, generalized per §5.1.1).

Maps each word to the list of entities (record ids, or cluster ids for
Probe-Cluster) containing it, together with the entity's score for that
word. Entities must be inserted in increasing id order so every posting
list stays id-sorted — the property the heap merge and the doubling
binary search rely on.

Posting storage is columnar: ids live in an ``array('q')`` and scores
in a parallel ``array('d')``. Compared to lists of boxed ints/floats
this is ~6x more compact, keeps each column contiguous for the merge
loops (and the score-accumulator backend's batch scans), and slices
cheaply. Both columns still support the ``Sequence`` protocol, so the
heap merge, the galloping binary search, and ``bisect`` work unchanged.

Per §5.1.1 the index incrementally maintains, for each word ``w``, the
maximum score ``score(w, I) = max_s score(w, s)`` (Eq. 3), and globally
the minimum entity norm ``minS = min_s ||s||`` used to bound the
threshold ``T(r, I) = T(r, minS)``.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Sequence

from repro.utils.counters import CostCounters

__all__ = ["PostingList", "ScoredInvertedIndex"]


class PostingList:
    """Id-sorted entities containing one word, with per-entity scores.

    Columnar: ``ids`` is an ``array('q')`` and ``scores`` an
    ``array('d')``, kept index-aligned. A list can be :meth:`seal`-ed
    into a frozen view once its build phase is over; sealed lists
    reject further mutation, which is what makes a built index safe to
    share across probe threads and snapshot without copying.
    """

    __slots__ = ("ids", "scores", "max_score", "min_score", "sealed")

    def __init__(self):
        self.ids: array = array("q")
        self.scores: array = array("d")
        self.max_score: float = 0.0
        #: A lower bound on every score (exact unless a score was raised
        #: in place); ``min_score == max_score == 1.0`` proves a unit list.
        self.min_score: float = math.inf
        self.sealed: bool = False

    def __len__(self) -> int:
        return len(self.ids)

    def seal(self) -> "PostingList":
        """Freeze the list: any further insert raises. Idempotent;
        returns self for chaining."""
        self.sealed = True
        return self

    def tail(self, since: int) -> "PostingList":
        """The entries with id ``>= since``, as a sealed list.

        The ids and scores are copies of the tail; ``max_score`` and
        ``min_score`` stay the whole list's bounds, which still bound
        the tail, so a merge over tails splits and screens them exactly
        as it would the whole lists.
        """
        position = bisect_left(self.ids, since)
        tail = PostingList.__new__(PostingList)  # columns set just below
        tail.ids = self.ids[position:]
        tail.scores = self.scores[position:]
        tail.max_score = self.max_score
        tail.min_score = self.min_score
        tail.sealed = True
        return tail

    def insert_sorted(self, entity_id: int, score: float) -> bool:
        """Insert (or score-raise) an entity keeping the list id-sorted.

        Needed by the cluster-level index, where an old cluster can gain
        a new word after younger clusters already hold it. If the entity
        is present, its score is raised to the max (the §5.1.3 cluster
        summary semantics).

        Returns True when a **new** entry was inserted, False when an
        existing entry was (possibly) score-raised. Callers mutating a
        list owned by a :class:`ScoredInvertedIndex` must bump its
        ``n_entries`` by exactly the number of True returns —
        ``ScoredInvertedIndex.audit_n_entries`` checks the invariant.
        """
        if self.sealed:
            raise ValueError("posting list is sealed; no further inserts")
        position = bisect_left(self.ids, entity_id)
        inserted = False
        if position < len(self.ids) and self.ids[position] == entity_id:
            if score > self.scores[position]:
                self.scores[position] = score
        else:
            self.ids.insert(position, entity_id)
            self.scores.insert(position, score)
            inserted = True
            if score < self.min_score:
                self.min_score = score
        if score > self.max_score:
            self.max_score = score
        return inserted


class ScoredInvertedIndex:
    """Word -> posting-list index with the §5.1.1 incremental statistics."""

    def __init__(self):
        self._postings: dict[int, PostingList] = {}
        self.min_norm: float = math.inf
        self.n_entries: int = 0
        self.n_entities: int = 0

    def __len__(self) -> int:
        """Number of distinct indexed words."""
        return len(self._postings)

    def __contains__(self, token: int) -> bool:
        return token in self._postings

    def get(self, token: int) -> PostingList | None:
        return self._postings.get(token)

    def get_or_create(self, token: int) -> PostingList:
        """Posting list for ``token``, created empty if absent.

        Callers mutating the list directly must keep ``n_entries`` in
        step: ``insert_sorted`` returns True for each genuinely new
        entry, and exactly those must bump ``n_entries`` (see
        ``ClusterSet.assign``). :meth:`audit_n_entries` verifies the
        bookkeeping.
        """
        plist = self._postings.get(token)
        if plist is None:
            plist = PostingList()
            self._postings[token] = plist
        return plist

    def tokens(self) -> Iterable[int]:
        return self._postings.keys()

    def seal(self) -> "ScoredInvertedIndex":
        """Freeze every posting list (see :meth:`PostingList.seal`).

        Call once the build phase is over; probing never mutates, so a
        sealed index is safe to share read-only. Returns self.
        """
        for plist in self._postings.values():
            plist.sealed = True
        return self

    def audit_n_entries(self) -> int:
        """Assert ``n_entries`` matches the actual posting entry count.

        Catches drift from callers that mutate posting lists through
        ``get_or_create``/``insert_sorted`` without the required
        bookkeeping. Returns the (verified) entry count.
        """
        actual = sum(len(plist) for plist in self._postings.values())
        if actual != self.n_entries:
            raise AssertionError(
                f"n_entries drift: recorded {self.n_entries},"
                f" posting lists hold {actual} entries"
            )
        return actual

    def insert(
        self,
        entity_id: int,
        tokens: Sequence[int],
        scores: Sequence[float],
        norm: float,
        counters: CostCounters | None = None,
    ) -> None:
        """Insert one entity under all its words.

        ``norm`` is the entity's ``||s||`` (Eq. 1); for clusters, callers
        pass the cluster summary ``||C|| = min over members`` (§5.1.3).
        Raises ``ValueError`` when a word's list is sealed or already
        holds an id ``>= entity_id``.
        """
        postings = self._postings
        for token, score in zip(tokens, scores):
            plist = postings.get(token)
            if plist is None:
                plist = PostingList()
                postings[token] = plist
            elif plist.sealed:
                raise ValueError("posting list is sealed; no further inserts")
            ids = plist.ids
            if ids and entity_id <= ids[-1]:
                raise ValueError(
                    f"entities must be inserted in increasing id order"
                    f" (got {entity_id} after {ids[-1]})"
                )
            ids.append(entity_id)
            plist.scores.append(score)
            if score > plist.max_score:
                plist.max_score = score
            if score < plist.min_score:
                plist.min_score = score
        self.n_entries += len(tokens)
        self.n_entities += 1
        if norm < self.min_norm:
            self.min_norm = norm
        if counters is not None:
            counters.index_entries += len(tokens)

    def update_min_norm(self, norm: float) -> None:
        """Lower the index-wide minimum norm (cluster summaries shrink)."""
        if norm < self.min_norm:
            self.min_norm = norm

    def probe_lists(
        self, tokens: Sequence[int], probe_scores: Sequence[float], since: int = 0
    ) -> list[tuple[PostingList, float]]:
        """Posting lists matching the probe record's words.

        Returns ``(posting_list, probe_score)`` for each probe word that
        exists in the index, skipping zero-score words. With ``since``
        only the entities ``>= since`` are returned: each list's
        :meth:`PostingList.tail`, and no list whose tail is empty. Ids
        grow with every insert, so these are the entities inserted
        after the first ``since`` — what the query service probes to
        extend an earlier answer (Probe-Count's online probe, §3.2).
        """
        out = []
        postings = self._postings
        for token, probe_score in zip(tokens, probe_scores):
            if probe_score == 0.0:
                continue
            plist = postings.get(token)
            if plist is None or not plist.ids:
                continue
            if since:
                if plist.ids[-1] < since:
                    continue
                plist = plist.tail(since)
            out.append((plist, probe_score))
        return out
