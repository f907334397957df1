"""repro — a reproduction of "Efficient set joins on similarity
predicates" (Sarawagi & Kirpal, SIGMOD 2004).

Exact set-similarity self-joins under T-overlap, Jaccard, cosine/TF-IDF
and edit-distance predicates, with every algorithm and optimization from
the paper: Probe-Count (plus stopwords / MergeOpt / online / pre-sort
variants), Pair-Count, Word-Groups, Probe-Cluster, and the
limited-memory two-phase ClusterMem.

Quickstart::

    from repro import Dataset, JaccardPredicate, similarity_join
    from repro.text import tokenize_words

    data = Dataset.from_texts(
        ["efficient set joins", "set joins made efficient", "unrelated"],
        tokenize_words,
    )
    result = similarity_join(data, JaccardPredicate(0.5))
    for pair in result.sorted_pairs():
        print(pair.rid_a, pair.rid_b, f"jaccard={pair.similarity:.2f}")
"""

from repro.approx import ApproxJoin, estimate_recall
from repro.core.cluster_mem import ClusterMemJoin, MemoryBudget
from repro.core.dedupe import connected_components, dedupe_texts
from repro.core.join import (
    ALGORITHMS,
    edit_distance_join,
    hamming_join,
    make_algorithm,
    similarity_join,
)
from repro.core.naive import NaiveJoin
from repro.core.topk import TopKJoin
from repro.core.pair_count import PairCountJoin, PairTableOverflow
from repro.core.positional_filter import PositionalFilterJoin
from repro.core.prefix_filter import PrefixFilterJoin
from repro.core.probe_cluster import ProbeClusterJoin
from repro.core.probe_count import ProbeCountJoin
from repro.core.records import Dataset
from repro.core.results import JoinResult, MatchPair
from repro.core.word_groups import WordGroupsJoin
from repro.core.service import SimilarityIndex
from repro.filters import BitmapFilterConfig
from repro.parallel import PARALLEL_ALGORITHMS, parallel_join
from repro.evaluation import MatchQuality, pair_quality, threshold_sweep
from repro.predicates import (
    CosinePredicate,
    DicePredicate,
    EditDistancePredicate,
    HammingPredicate,
    JaccardPredicate,
    OverlapCoefficientPredicate,
    OverlapPredicate,
    WeightedOverlapPredicate,
)
from repro.runtime import (
    CancellationToken,
    CheckpointMismatch,
    ConcurrentMutation,
    JoinCancelled,
    JoinCheckpointer,
    JoinContext,
    JoinInterrupted,
    JoinRuntimeError,
    JoinTimeout,
    MemoryBudgetExceeded,
    SnapshotCorrupted,
    SnapshotEncodingError,
    UnsupportedConfiguration,
)

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "ApproxJoin",
    "BitmapFilterConfig",
    "CancellationToken",
    "CheckpointMismatch",
    "ClusterMemJoin",
    "ConcurrentMutation",
    "CosinePredicate",
    "Dataset",
    "DicePredicate",
    "EditDistancePredicate",
    "JaccardPredicate",
    "JoinCancelled",
    "JoinCheckpointer",
    "JoinContext",
    "JoinInterrupted",
    "JoinResult",
    "JoinRuntimeError",
    "JoinTimeout",
    "MatchPair",
    "MemoryBudget",
    "MemoryBudgetExceeded",
    "NaiveJoin",
    "SnapshotCorrupted",
    "SnapshotEncodingError",
    "OverlapCoefficientPredicate",
    "OverlapPredicate",
    "PARALLEL_ALGORITHMS",
    "PairCountJoin",
    "PairTableOverflow",
    "HammingPredicate",
    "MatchQuality",
    "PositionalFilterJoin",
    "PrefixFilterJoin",
    "ProbeClusterJoin",
    "ProbeCountJoin",
    "SimilarityIndex",
    "TopKJoin",
    "UnsupportedConfiguration",
    "WeightedOverlapPredicate",
    "WordGroupsJoin",
    "connected_components",
    "dedupe_texts",
    "edit_distance_join",
    "estimate_recall",
    "hamming_join",
    "make_algorithm",
    "pair_quality",
    "parallel_join",
    "similarity_join",
    "threshold_sweep",
    "__version__",
]
