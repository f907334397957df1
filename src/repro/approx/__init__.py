"""Approximate set-similarity join with a tunable recall target.

This package is the codebase's first *non-exact* execution path: a
chosen-path-style recursive LSH candidate generator in the spirit of
CPSJoin (Christiani, Pagh & Sivertsen, "Scalable and Robust Set
Similarity Join") layered in front of the exact §5 verifier the rest of
the repository already shares.

The contract is deliberately asymmetric:

* **Soundness is exact.** Every emitted pair went through
  :meth:`BoundPredicate.verify` — the same decision procedure every
  exact algorithm uses — so the output is always a *subset* of the
  exact join. There are no false positives, ever.
* **Completeness is probabilistic.** Candidate generation may miss
  qualifying pairs; the number of independent path repetitions is sized
  from ``target_recall`` so each qualifying pair is surfaced with at
  least that probability (see :mod:`repro.approx.plan` for the sizing
  rule and :mod:`repro.approx.floor` for the per-predicate Jaccard
  floor it rests on).
* **Determinism is total.** All randomness derives arithmetically from
  the ``seed`` knob — a fixed seed produces an identical pair set on
  every machine, worker count, and run.

Because candidates flow through the shared
:meth:`SetJoinAlgorithm._verify_pair` / :meth:`_drive` machinery, the
exact side's composition points all work unchanged: the bitmap
prefilter, merge backends, ``JoinContext`` deadlines / cancellation /
memory budgets / checkpoints, and ``parallel_join`` shards.
"""

from repro.approx.floor import pair_jaccard_floor
from repro.approx.join import ApproxJoin
from repro.approx.plan import ApproxPlan, plan_paths
from repro.approx.recall import estimate_recall

__all__ = [
    "ApproxJoin",
    "ApproxPlan",
    "estimate_recall",
    "pair_jaccard_floor",
    "plan_paths",
]
