"""Which entry point of the program belongs to which layer.

Each ``install_*`` function wraps the entry points of one set of layers
for the traced run (see :mod:`tracing`): public calls, plus the servers'
per-request ``_execute``/``_probe_shard`` hooks, where a query crosses
to a worker thread. Wrapped names are patched where the caller looks
them up (``repro.core.base`` imports the merge functions by name, so
they are patched there). Layers are named by module.
"""

from __future__ import annotations

from time import perf_counter_ns

from tracing import Tracer


def _counters(args, kwargs, position):
    return args[position] if len(args) > position else kwargs["counters"]


def _merge_wrapper(tracer: Tracer, counters_at: int):
    """Merge leaf: calls, posting entries consumed, candidates produced."""

    def before(args, kwargs):
        counters = _counters(args, kwargs, counters_at)
        return counters, counters.list_items_touched

    def after(state, args, result):
        counters, touched = state
        return {
            "merge.calls": 1,
            "merge.entries": counters.list_items_touched - touched,
            "merge.candidates": len(result),
        }

    return tracer.timed("core.merge", before, after)


def _verify_after(state, args, result):
    return {"verify.calls": 1, "verify.true": 1 if result[0] else 0}


def _install_common(tracer: Tracer, merge_namespace, merge_names) -> None:
    """Merge, verification and index-insert leaves shared by every path."""
    from repro.core.inverted_index import ScoredInvertedIndex
    from repro.predicates.base import BoundPredicate
    from repro.predicates.jaccard import JaccardPredicate

    positions = {
        "heap_merge": 2,
        "accumulate_merge": 2,
        "merge_opt": 3,
        "accumulate_merge_opt": 3,
    }
    for name in merge_names:
        tracer.patch(merge_namespace, name, _merge_wrapper(tracer, positions[name]))
    tracer.patch(BoundPredicate, "verify", tracer.timed("predicates:verify", after=_verify_after))
    tracer.patch(JaccardPredicate, "bind", tracer.timed("predicates:bind"))
    tracer.patch(ScoredInvertedIndex, "insert", tracer.timed("core.inverted_index"))
    tracer.patch(ScoredInvertedIndex, "seal", tracer.timed("core.inverted_index"))


def install_join_layers(tracer: Tracer) -> None:
    """Batch-join layers: algorithm driver, token order, index, merge,
    bitmap filter, predicate bind/verify."""
    from repro.core import base
    from repro.core.base import SetJoinAlgorithm
    from repro.core.token_order import TokenOrder
    from repro.filters.pruner import BitmapPruner

    _install_common(
        tracer, base, ("heap_merge", "merge_opt", "accumulate_merge", "accumulate_merge_opt")
    )
    # The algorithm's own span: its self time is the scan loop and the
    # inline filters (the positional filter probes without the shared
    # merge functions).
    tracer.patch(
        SetJoinAlgorithm,
        "join",
        tracer.spanned(lambda algo: "core." + type(algo).__module__.rsplit(".", 1)[-1]),
    )
    tracer.patch(TokenOrder, "for_dataset", tracer.timed("core.token_order"))
    tracer.patch(TokenOrder, "canonicalize_all", tracer.timed("core.token_order"))

    # Check counts come from the join's own counters at the algorithm
    # boundary: per-check counting would cost more than the check.
    tracer.patch(BitmapPruner, "rejects", tracer.timed("filters"))
    tracer.patch(BitmapPruner, "for_join", tracer.timed("filters"))


def install_serve_layers(tracer: Tracer) -> None:
    """Serving layers: server execution, cache, sharded scatter-gather,
    transport, service, reader-writer lock, plus the shared leaves."""
    from repro.core import service
    from repro.core.service import SimilarityIndex
    from repro.runtime.rwlock import RWLock
    from repro.serving.cache import QueryCache
    from repro.serving.server import IndexServer
    from repro.serving.sharded import ShardedIndexServer
    from repro.serving.transport.client import RemoteShardClient

    _install_common(tracer, service, ("merge_opt", "accumulate_merge_opt"))
    tracer.patch(SimilarityIndex, "query", tracer.spanned("core.service:query"))
    tracer.patch(SimilarityIndex, "add", tracer.spanned("core.service:add"))
    tracer.patch(RWLock, "read_locked", tracer.lock_wait("rwlock.read_wait"))
    tracer.patch(RWLock, "write_locked", tracer.lock_wait("rwlock.write_wait"))
    tracer.patch(QueryCache, "lookup", tracer.timed("serving.cache"))
    tracer.patch(QueryCache, "store", tracer.timed("serving.cache"))
    request_item = lambda args: args[1].item  # noqa: E731 — (self, request)
    tracer.patch(
        IndexServer, "_execute", tracer.adopted("serving.server:execute", request_item)
    )
    tracer.patch(
        ShardedIndexServer,
        "_execute",
        tracer.adopted("serving.sharded", request_item, rehand=True),
    )
    tracer.patch(
        ShardedIndexServer,
        "_probe_shard",
        tracer.adopted("serving.sharded:probe", lambda args: args[2]),
    )

    def transport(fn):
        def query(client, item, context=None):
            start = perf_counter_ns()
            with tracer.span("serving.transport"):
                result = fn(client, item, context)
            tracer.samples["rtt:" + client.endpoint].append(perf_counter_ns() - start)
            return result

        return query

    tracer.patch(RemoteShardClient, "query", transport)
