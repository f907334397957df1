"""Word-Groups join (paper §2.3) with the §3.1 threshold optimization.

Maps the T-overlap join to frequent-itemset mining: items are words,
transactions are records, minimum support 2. An itemset ("word group")
whose total word weight reaches the threshold certifies every pair of
records in its tid-list, so the join outputs pairs from qualifying
groups.

The paper's two tricks against group blow-up, both implemented:

* **Early output** — a group with support below ``M`` (default 5) is
  output and pruned before its weight reaches ``T``; its few implied
  pairs are verified directly.
* **MinHash compaction** — at each level, groups whose tid-lists agree on
  at least ``k*p`` MinHash signature slots are merged, their union
  emitted and pruned, killing the redundancy of the C(2T, T) itemset
  combinations a high-overlap pair would otherwise generate.

Both tricks, and the output path itself, are *exact* because a group's
tid-list only shrinks as the group grows: emitting all pairs of the
current tid-list (through the predicate's exact verifier) covers every
pair any descendant group could ever certify.

The §3.1 threshold optimization skips candidate groups consisting solely
of "large-list" words whose combined maximum contribution is below the
smallest possible threshold. To keep the itemset lattice connected under
this skip, items are ordered with non-large words first: every mixed
candidate's two prefix-join parents then drop one of its *last* (most
large-ish) items and remain mixed themselves, so no mixed group is ever
lost to a skipped all-large parent.

Under a join context's memory budget the live tid-list entries count
against it, checked as each level is generated: on long records the
lattice holds many times more entries than the corpus has tokens, and
a trip degrades the join to ClusterMem like any other budget trip.

Restriction (as in the paper, which runs Word-Groups on unweighted
overlap): the predicate's word scores must be record-independent, so
cosine/TF-IDF is rejected.
"""

from __future__ import annotations

from repro.core.base import RECORD_INDEPENDENT, SetJoinAlgorithm
from repro.core.records import Dataset
from repro.core.results import MatchPair
from repro.mining.apriori import generate_candidates, intersect_sorted
from repro.mining.minhash import compact_groups
from repro.predicates.base import WEIGHT_EPS, BoundPredicate
from repro.utils.counters import CostCounters

__all__ = ["WordGroupsJoin"]


class WordGroupsJoin(SetJoinAlgorithm):
    """Frequent-itemset join (§2.3).

    Args:
        early_output_support: the paper's ``M`` — groups with fewer
            records are output and pruned immediately (default 5).
        optimized: apply the §3.1 restriction (skip groups made solely of
            large-list words).
        compaction: merge near-identical groups per level via MinHash.
        minhash_k: signature slots for compaction.
        minhash_p: agreement fraction required to merge groups.
        max_level: safety cap on itemset size; remaining groups are
            flushed exactly when it is hit (None = unbounded).
        seed: MinHash seed (results are independent of it; work is not).
    """

    #: A word group carries one weight per word.
    requires_scores = RECORD_INDEPENDENT

    def __init__(
        self,
        early_output_support: int = 5,
        optimized: bool = True,
        compaction: bool = True,
        minhash_k: int = 16,
        minhash_p: float = 0.9,
        max_level: int | None = None,
        seed: int = 0,
    ):
        if early_output_support < 2:
            raise ValueError(
                f"early_output_support must be >= 2, got {early_output_support}"
            )
        self.early_output_support = early_output_support
        self.optimized = optimized
        self.compaction = compaction
        self.minhash_k = minhash_k
        self.minhash_p = minhash_p
        self.max_level = max_level
        self.seed = seed
        self.name = "word-groups-optmerge" if optimized else "word-groups"

    def _run(
        self, dataset: Dataset, bound: BoundPredicate, counters: CostCounters
    ) -> list[MatchPair]:
        word_weight, min_threshold = self._word_weights(dataset, bound)
        large_words = self._large_word_set(dataset, word_weight, min_threshold)
        counters.extra["large_words"] = len(large_words)
        # Mining item ids: non-large words first, so the lattice stays
        # connected when all-large candidates are skipped (see module
        # docstring).
        tokens_in_order = sorted(word_weight, key=lambda t: (t in large_words, t))
        item_of_token = {token: item for item, token in enumerate(tokens_in_order)}
        item_weight = [word_weight[token] for token in tokens_in_order]
        first_large_item = len(tokens_in_order) - len(large_words)

        # The tid-lists are charged to no counter the runtime check
        # reads, so the join tallies its live tid-list entries itself
        # and checks them against the memory budget as they grow.
        # Level 1: item -> tid-list, support >= 2.
        tidlists: dict[int, list[int]] = {}
        live = 0
        for rid, record in enumerate(dataset.records):
            self._tick(counters)
            for token in record:
                tidlists.setdefault(item_of_token[token], []).append(rid)
            live += len(record)
            self._check_entries(live)
        level: dict[tuple[int, ...], list[int]] = {
            (item,): tids for item, tids in tidlists.items() if len(tids) >= 2
        }
        del tidlists  # frees the support-1 lists
        live = sum(map(len, level.values()))

        seen: set[tuple[int, int]] = set()
        pairs: list[MatchPair] = []
        while level:
            counters.itemsets_generated += len(level)
            survivors: dict[tuple[int, ...], list[int]] = {}
            for itemset, tids in level.items():
                # Per-group runtime check (deadline/cancel/memory); the
                # lattice can vastly outnumber the records.
                self._tick(counters)
                weight = sum(item_weight[item] for item in itemset)
                if weight >= min_threshold - WEIGHT_EPS:
                    # Qualifying group: output all implied pairs, prune.
                    self._emit_group(tids, bound, counters, seen, pairs)
                elif len(tids) < self.early_output_support:
                    # Early output: small group, verify directly, prune.
                    self._emit_group(tids, bound, counters, seen, pairs)
                else:
                    survivors[itemset] = tids
            if self.compaction and len(survivors) > 1:
                survivors = self._compact(survivors, bound, counters, seen, pairs)
            if (
                self.max_level is not None
                and survivors
                and len(next(iter(survivors))) >= self.max_level
            ):
                for tids in survivors.values():
                    self._emit_group(tids, bound, counters, seen, pairs)
                break
            level, live = self._next_level(survivors, first_large_item, live)
        return pairs

    # ------------------------------------------------------------------

    def _word_weights(
        self, dataset: Dataset, bound: BoundPredicate
    ) -> tuple[dict[int, float], float]:
        """Per-word pair contribution and the global minimum threshold.

        With record-independent scores, word ``w`` always contributes
        ``score(w)^2`` to a matched pair's weight.
        """
        weight: dict[int, float] = {}
        min_norm = float("inf")
        for rid in range(len(dataset)):
            scores = bound.cached_score_vector(rid)
            for token, score in zip(dataset[rid], scores):
                if token not in weight:
                    weight[token] = score * score
            norm = bound.norm(rid)
            if norm < min_norm:
                min_norm = norm
        min_threshold = bound.threshold(min_norm, min_norm) if weight else 0.0
        return weight, min_threshold

    def _large_word_set(
        self, dataset: Dataset, word_weight: dict[int, float], min_threshold: float
    ) -> set[int]:
        """The §3.1 set L: most frequent words with total weight < T."""
        if not self.optimized:
            return set()
        by_frequency = sorted(
            dataset.frequency.items(), key=lambda item: (-item[1], item[0])
        )
        large: set[int] = set()
        budget = 0.0
        for token, _freq in by_frequency:
            contribution = word_weight.get(token, 0.0)
            if budget + contribution >= min_threshold - WEIGHT_EPS:
                break
            budget += contribution
            large.add(token)
        return large

    def _next_level(
        self,
        level: dict[tuple[int, ...], list[int]],
        first_large_item: int,
        live: int,
    ) -> tuple[dict[tuple[int, ...], list[int]], int]:
        """The next level's groups and their tid-list entries.

        ``live`` is the tid-list entries still held (the current level);
        each generated tid-list adds to it, and the budget is checked
        as it grows, so a level too large for it fails mid-generation.
        """
        out: dict[tuple[int, ...], list[int]] = {}
        entries = 0
        for candidate, parent_a, parent_b in generate_candidates(list(level.keys())):
            # All-large groups cannot reach the threshold (§3.1); items
            # are ordered non-large first, so checking the first item
            # suffices.
            if candidate[0] >= first_large_item:
                continue
            tids = intersect_sorted(level[parent_a], level[parent_b])
            if len(tids) >= 2:
                out[candidate] = tids
                entries += len(tids)
                self._check_entries(live + entries)
        return out, entries

    def _check_entries(self, entries: int) -> None:
        """Check ``entries`` live tid-list entries against the join
        context's memory budget, when the join runs under a context."""
        if self._context is not None:
            self._context.check_entries(entries)

    def _emit_group(
        self,
        tids: list[int],
        bound: BoundPredicate,
        counters: CostCounters,
        seen: set[tuple[int, int]],
        pairs: list[MatchPair],
    ) -> None:
        n = len(tids)
        for i in range(n):
            rid_a = tids[i]
            for j in range(i + 1, n):
                key = (rid_a, tids[j])
                counters.pairs_generated += 1
                if key in seen:
                    continue
                seen.add(key)
                self._verify_pair(bound, key[0], key[1], counters, pairs)

    def _compact(
        self,
        survivors: dict[tuple[int, ...], list[int]],
        bound: BoundPredicate,
        counters: CostCounters,
        seen: set[tuple[int, int]],
        pairs: list[MatchPair],
    ) -> dict[tuple[int, ...], list[int]]:
        """Merge near-identical tid-lists; emit and prune merged groups."""
        itemsets = list(survivors.keys())
        clusters = compact_groups(
            [survivors[itemset] for itemset in itemsets],
            k=self.minhash_k,
            p=self.minhash_p,
            seed=self.seed,
        )
        out: dict[tuple[int, ...], list[int]] = {}
        for members in clusters:
            if len(members) == 1:
                itemset = itemsets[members[0]]
                out[itemset] = survivors[itemset]
                continue
            counters.extra["groups_compacted"] = (
                counters.extra.get("groups_compacted", 0) + len(members)
            )
            union: set[int] = set()
            for member in members:
                union.update(survivors[itemsets[member]])
            self._emit_group(sorted(union), bound, counters, seen, pairs)
        return out
