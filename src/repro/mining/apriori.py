"""Apriori building blocks over tid-lists (Agrawal & Srikant).

Word-Groups (paper §2.3) mines word groups level by level in the
vertical format: each itemset carries the sorted list of transaction ids
(tid-list) containing it, so support counting is a sorted intersection —
the natural fit for a join, which needs the record groups, not just
supports. :class:`~repro.core.word_groups.WordGroupsJoin` runs its own
level loop (at the unusually low support of 2, with early output and
MinHash compaction) over the two steps here: the prefix join that forms
candidates and the tid-list intersection that counts them.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

__all__ = ["generate_candidates", "intersect_sorted"]


def intersect_sorted(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Intersection of two sorted id lists (merge-based)."""
    out: list[int] = []
    i = j = 0
    len_a, len_b = len(a), len(b)
    while i < len_a and j < len_b:
        x, y = a[i], b[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return out


def generate_candidates(level: list[tuple[int, ...]]) -> Iterable[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]]:
    """Apriori join step: pairs of k-itemsets sharing a (k-1)-prefix.

    ``level`` must hold sorted item tuples. Yields
    ``(candidate, parent_a, parent_b)`` with ``candidate`` sorted.
    """
    by_prefix: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for itemset in level:
        by_prefix.setdefault(itemset[:-1], []).append(itemset)
    for prefix, members in by_prefix.items():
        members.sort()
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                a, b = members[i], members[j]
                yield prefix + (a[-1], b[-1]), a, b

