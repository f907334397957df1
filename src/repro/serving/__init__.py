"""Robust concurrent query serving over :class:`SimilarityIndex`.

The paper frames set joins as a DBMS-resident operator that also
answers online similarity queries; this package is the online half
grown into a service fit for real traffic:

* :class:`~repro.serving.server.IndexServer` — bounded worker pool,
  bounded admission queue with load shedding
  (:class:`~repro.runtime.errors.ServerOverloaded`), per-query
  deadlines, health reporting, graceful drain.
* :class:`~repro.serving.sharded.ShardedIndexServer` — the same
  contract scaled across N hash-partitioned index shards: scatter-
  gather probes with per-shard deadline budgets, breakers, caches, and
  hedging (:class:`~repro.serving.sharded.HedgePolicy`); partial
  results with explicit accounting
  (:class:`~repro.serving.sharded.ShardedResult`,
  :class:`~repro.runtime.errors.PartialResult`); zero-downtime reindex
  via :class:`~repro.serving.generation.GenerationBuilder`;
  :class:`~repro.serving.router.ShardRouter` assigns records to shards
  by stable hash.
* :class:`~repro.serving.retry.RetryPolicy` — exponential backoff with
  jitter for transient faults, clamped to the request's deadline.
* :class:`~repro.serving.breaker.CircuitBreaker` — fail fast while the
  index (or its storage) is down
  (:class:`~repro.runtime.errors.CircuitOpen`).
* :class:`~repro.serving.stats.LatencyTracker` — p50/p95/p99 over a
  bounded window of recent queries.
* :class:`~repro.serving.cache.QueryCache` — LRU result cache with
  stamp-based invalidation. ``IndexServer`` keeps its entries across
  ``add`` and extends a hit with a probe of the appended records only;
  a ``rebind`` empties it. The sharded tier's per-shard caches empty on
  any mutation of their shard.
* :mod:`~repro.serving.transport` — the remote shard transport:
  :class:`~repro.serving.transport.server.ShardServer` hosts one shard
  behind a TCP socket (``repro shard-serve``),
  :class:`~repro.serving.transport.client.RemoteShardClient` is the
  front-end handle the sharded server mixes in via
  ``shard_endpoints=`` (``repro serve --shard-endpoints``).

Thread safety of the underlying index lives in
:mod:`repro.core.service` (non-mutating probes) and
:mod:`repro.runtime.rwlock` (reader–writer lock); this layer assumes it
and adds operability. See the "Serving" and "Sharded serving" sections
of ``docs/operations.md`` and the ``repro serve`` CLI subcommand.
"""

from repro.serving.breaker import CircuitBreaker
from repro.serving.cache import QueryCache
from repro.serving.generation import GenerationBuilder
from repro.serving.retry import RetryPolicy, default_retryable
from repro.serving.router import ShardRouter
from repro.serving.server import IndexServer
from repro.serving.sharded import HedgePolicy, ShardedIndexServer, ShardedResult
from repro.serving.stats import LatencyTracker
from repro.serving.transport import RemoteShardClient, ShardServer

__all__ = [
    "CircuitBreaker",
    "GenerationBuilder",
    "HedgePolicy",
    "IndexServer",
    "LatencyTracker",
    "QueryCache",
    "RemoteShardClient",
    "RetryPolicy",
    "ShardRouter",
    "ShardServer",
    "ShardedIndexServer",
    "ShardedResult",
    "default_retryable",
]
