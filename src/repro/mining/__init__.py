"""Frequent-itemset mining and MinHash substrates.

The Word-Groups join (paper §2.3) maps the set join to frequent-itemset
mining with words as items and RIDs as transactions. Its level-wise
loop needs the Apriori candidate join and tid-list intersection
(:mod:`repro.mining.apriori`), plus MinHash signatures for compacting
groups with overlapping RID lists (:mod:`repro.mining.minhash`). Both
are implemented from scratch here.
"""

from repro.mining.apriori import generate_candidates
from repro.mining.minhash import MinHasher, compact_groups

__all__ = [
    "MinHasher",
    "compact_groups",
    "generate_candidates",
]
