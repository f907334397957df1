"""Command-line interface: similarity joins over line-oriented text.

Each input line is one record. Subcommands::

    python -m repro join   --input records.txt --predicate jaccard --threshold 0.8
    python -m repro dedupe --input records.txt --predicate overlap --threshold 5
    python -m repro editjoin --input names.txt -k 2
    python -m repro stats  --input records.txt --tokenizer 3grams

``join`` prints TSV ``rid_a  rid_b  similarity``; ``dedupe`` prints one
duplicate group per line; ``stats`` prints the Table-1 statistics of
the tokenized corpus.

Hardened runtime (``join``/``dedupe``): ``--checkpoint DIR`` makes the
join resumable — an interrupted run (SIGINT, ``--deadline`` expiry)
flushes its progress there and the same command picks up where it left
off. ``--memory-budget N`` caps live index entries, degrading to the
ClusterMem algorithm when exceeded. Operational errors exit with a
one-line message (never a traceback): status 2 for bad input/usage,
124 on deadline expiry, 130 on interruption.

Serving (``serve``): index the input corpus, then answer similarity
queries read line-by-line from ``--queries`` (default stdin) through a
bounded worker pool with load shedding, per-query deadlines, retries,
and a circuit breaker. Prints ``qid  rid  similarity`` per match;
SIGINT/SIGTERM drains in-flight queries gracefully before exiting and
a health summary always goes to stderr.

Multi-node serving (``shard-serve``): host one index shard behind a
TCP socket speaking the length-prefixed, checksummed binary wire
protocol of :mod:`repro.serving.transport`. A front end started with
``serve --shard-endpoints host:port,...`` mixes those nodes (and
``local`` in-process shards) into its scatter-gather tier; each remote
node is its own network fault domain with heartbeats, reconnecting
retries, and partial-result failover.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading
from collections import deque
from concurrent.futures import TimeoutError as FuturesTimeout
from contextlib import contextmanager

from repro.core.accumulator import MERGE_BACKENDS
from repro.storage.mmap_index import INDEX_BACKENDS
from repro.core.dedupe import connected_components
from repro.core.join import ALGORITHMS, edit_distance_join, make_algorithm, similarity_join
from repro.core.records import Dataset
from repro.core.service import SimilarityIndex
from repro.predicates import (
    CosinePredicate,
    DicePredicate,
    JaccardPredicate,
    OverlapPredicate,
    WeightedOverlapPredicate,
)
from repro.runtime import (
    CancellationToken,
    JoinCancelled,
    JoinCheckpointer,
    JoinContext,
    JoinRuntimeError,
    JoinTimeout,
    ServerOverloaded,
    UnsupportedConfiguration,
)
from repro.serving import (
    CircuitBreaker,
    HedgePolicy,
    IndexServer,
    RetryPolicy,
    ShardServer,
    ShardedIndexServer,
    ShardedResult,
)
from repro.serving.transport import parse_endpoint
from repro.text.tfidf import CorpusStats
from repro.text.tokenizers import tokenize_qgrams, tokenize_words

__all__ = ["main"]

_TOKENIZERS = {
    "words": tokenize_words,
    "3grams": lambda text: tokenize_qgrams(text, q=3),
    "2grams": lambda text: tokenize_qgrams(text, q=2),
}

_PREDICATES = {
    "overlap": OverlapPredicate,
    "weighted-overlap": WeightedOverlapPredicate,
    "jaccard": JaccardPredicate,
    "cosine": CosinePredicate,
    "dice": DicePredicate,
}

#: Exit statuses (join/dedupe): usage & input errors / deadline / interrupt.
EXIT_USAGE = 2
EXIT_TIMEOUT = 124
EXIT_INTERRUPTED = 130


class _CLIError(Exception):
    """An operational error reported as one line on stderr, exit 2."""


def _read_lines(path: str) -> list[str]:
    try:
        if path == "-":
            return [line.rstrip("\n") for line in sys.stdin if line.strip()]
        with open(path, "r", encoding="utf-8") as handle:
            return [line.rstrip("\n") for line in handle if line.strip()]
    except OSError as exc:
        detail = exc.strerror or str(exc)
        raise _CLIError(f"cannot read {path}: {detail}") from exc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", "-i", required=True, help="input file ('-' = stdin)")
    parser.add_argument(
        "--tokenizer", choices=sorted(_TOKENIZERS), default="words",
        help="how to derive the element set from each line",
    )


def _add_join_options(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument(
        "--predicate", choices=sorted(_PREDICATES), default="jaccard"
    )
    parser.add_argument(
        "--threshold", "-t", type=float, required=True,
        help="T for overlap predicates, fraction for the others",
    )
    parser.add_argument("--algorithm", default="probe-cluster")
    parser.add_argument(
        "--workers", "-w", type=int, default=1, metavar="N",
        help="shard the join over N worker processes (default 1 = serial);"
        " the result is identical to the serial join",
    )
    approx = parser.add_argument_group("approximate mode")
    approx.add_argument(
        "--mode", choices=("exact", "approx"), default="exact",
        help="'exact' (default) runs --algorithm; 'approx' trades a"
        " bounded, seeded fraction of recall for speed via LSH"
        " candidate generation — emitted pairs are still verified"
        " exactly (never a false positive) and a sampled recall"
        " estimate is reported on stderr",
    )
    approx.add_argument(
        "--target-recall", type=float, default=0.9, metavar="FRACTION",
        help="with --mode approx: per-qualifying-pair surfacing"
        " probability the run is sized for (default 0.9)",
    )
    _add_seed_option(parser)
    _add_merge_backend_option(parser)
    _add_index_backend_option(parser)
    _add_bitmap_options(parser)
    runtime = parser.add_argument_group("hardened runtime")
    runtime.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="checkpoint directory; an interrupted run resumes from it",
    )
    runtime.add_argument(
        "--checkpoint-interval", metavar="N", type=int, default=1000,
        help="records between checkpoints (default 1000)",
    )
    runtime.add_argument(
        "--deadline", metavar="SECONDS", type=float, default=None,
        help="abort (exit 124) when the join exceeds this wall-clock budget",
    )
    runtime.add_argument(
        "--memory-budget", metavar="ENTRIES", type=int, default=None,
        help="cap live index entries (word occurrences); exceeding it"
        " degrades the join to the cluster-mem algorithm",
    )


def _add_seed_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed", type=int, default=0, metavar="N",
        help="deterministic seed for approximate candidate generation"
        " (--mode approx / --algorithm approx); a fixed seed yields an"
        " identical pair set at any --workers count (default 0)",
    )


def _add_merge_backend_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--merge-backend", choices=MERGE_BACKENDS, default="auto",
        help="probe-merge engine: 'heap' (heap merge), 'accumulator'"
        " (score-accumulator scan), or 'auto' (adaptive per probe, the"
        " default); results are identical across backends",
    )


def _add_index_backend_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--index-backend", choices=INDEX_BACKENDS, default="memory",
        help="where the probe index lives: 'memory' (in-process, the"
        " default), 'mmap' (write-once on-disk columnar file probed"
        " zero-copy through a memory mapping) or 'mmap-varbyte' (the"
        " same file with varbyte-compressed id blocks); the mapped"
        " backends need a two-pass algorithm such as"
        " probe-count-optmerge; results are identical across backends",
    )
    parser.add_argument(
        "--index-path", metavar="FILE", default=None,
        help="with a mapped --index-backend, keep the mapped index at"
        " FILE instead of an unlinked temp file",
    )


def _add_bitmap_options(parser: argparse.ArgumentParser) -> None:
    filters = parser.add_argument_group("candidate filters")
    filters.add_argument(
        "--bitmap-filter", action="store_true",
        help="prune candidate pairs with fixed-width bitmap signatures"
        " before exact verification; the output is identical either way",
    )
    filters.add_argument(
        "--bitmap-width", metavar="BITS", type=int, default=128,
        help="signature width in bits (default 128; wider = fewer false"
        " survivors, costlier checks)",
    )


def _bitmap_config(args):
    """The BitmapFilterConfig the flags ask for, or None (filter off)."""
    if not getattr(args, "bitmap_filter", False):
        return None
    from repro.filters import BitmapFilterConfig

    try:
        return BitmapFilterConfig(width=args.bitmap_width)
    except ValueError as exc:
        raise _CLIError(str(exc)) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Exact set-similarity joins (Sarawagi & Kirpal, SIGMOD 2004)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    join_parser = commands.add_parser("join", help="print matching record pairs")
    _add_join_options(join_parser)

    dedupe_parser = commands.add_parser("dedupe", help="print duplicate groups")
    _add_join_options(dedupe_parser)

    edit_parser = commands.add_parser(
        "editjoin", help="exact edit-distance join over the raw lines"
    )
    edit_parser.add_argument("--input", "-i", required=True)
    edit_parser.add_argument("-k", type=int, required=True, help="max edit distance")
    edit_parser.add_argument("-q", type=int, default=3, help="q-gram length")
    edit_parser.add_argument("--algorithm", default="probe-count-optmerge")
    _add_seed_option(edit_parser)
    _add_merge_backend_option(edit_parser)
    _add_bitmap_options(edit_parser)

    stats_parser = commands.add_parser("stats", help="corpus statistics (Table 1)")
    _add_common(stats_parser)

    serve_parser = commands.add_parser(
        "serve", help="serve similarity queries over the indexed input"
    )
    _add_common(serve_parser)
    serve_parser.add_argument(
        "--predicate", choices=sorted(_PREDICATES), default="jaccard"
    )
    serve_parser.add_argument(
        "--threshold", "-t", type=float, required=True,
        help="T for overlap predicates, fraction for the others",
    )
    serve_parser.add_argument(
        "--queries", metavar="FILE", default="-",
        help="file of query lines ('-' = stdin, the default)",
    )
    serving = serve_parser.add_argument_group("serving")
    serving.add_argument(
        "--workers", type=int, default=4, help="query worker threads (default 4)"
    )
    serving.add_argument(
        "--queue-limit", type=int, default=64,
        help="admission queue bound; a full queue sheds (default 64)",
    )
    serving.add_argument(
        "--query-deadline", metavar="SECONDS", type=float, default=None,
        help="per-query wall-clock budget, queue wait included",
    )
    serving.add_argument(
        "--retries", type=int, default=3,
        help="attempts per query for transient faults (default 3; 1 = off)",
    )
    serving.add_argument(
        "--breaker-threshold", type=int, default=5,
        help="consecutive failures that open the circuit breaker (default 5)",
    )
    serving.add_argument(
        "--breaker-cooldown", metavar="SECONDS", type=float, default=5.0,
        help="seconds the breaker stays open before half-opening (default 5)",
    )
    serving.add_argument(
        "--drain-timeout", metavar="SECONDS", type=float, default=10.0,
        help="grace period for in-flight queries on shutdown (default 10)",
    )
    serving.add_argument(
        "--query-cache", metavar="N", type=int, default=0,
        help="LRU query-result cache capacity (default 0 = off; per shard"
        " with --shards > 1 or --shard-endpoints); an add keeps the"
        " entries and a later hit probes only the appended records, a"
        " rebind or a shard's flip empties that cache",
    )
    sharding = serve_parser.add_argument_group("sharding")
    sharding.add_argument(
        "--shards", metavar="N", type=int, default=1,
        help="partition the index across N shards served scatter-gather"
        " (default 1 = single index); results are identical, but each"
        " shard is its own fault domain and a query that loses shards"
        " returns partial results with a completeness TSV column",
    )
    sharding.add_argument(
        "--shard-workers", metavar="N", type=int, default=2,
        help="probe threads per local shard (default 2; hedging a local"
        " shard needs >= 2); remote shards have none: the --workers"
        " threads send and read their probes",
    )
    sharding.add_argument(
        "--hedge-delay", metavar="SECONDS", type=float, default=None,
        help="re-issue a shard probe still running after this many"
        " seconds and take whichever finishes first (default off)",
    )
    sharding.add_argument(
        "--require-complete", action="store_true",
        help="fail a query that loses any shard (typed PartialResult"
        " error) instead of answering from the surviving shards",
    )
    sharding.add_argument(
        "--shard-endpoints", metavar="LIST", default=None,
        help="comma-separated shard backends, one per shard: 'host:port'"
        " probes a remote shard-serve node over TCP, 'local' keeps that"
        " shard in-process; sets the shard count when --shards is not"
        " given (e.g. 'local,127.0.0.1:7601,127.0.0.1:7602')",
    )
    sharding.add_argument(
        "--heartbeat-interval", metavar="SECONDS", type=float, default=1.0,
        help="seconds between health pings to each remote shard; pings"
        " feed that shard's circuit breaker (default 1.0)",
    )
    _add_merge_backend_option(serve_parser)
    _add_bitmap_options(serve_parser)

    shard_parser = commands.add_parser(
        "shard-serve",
        help="host one index shard behind a TCP socket for a remote"
        " serve front end",
    )
    shard_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    shard_parser.add_argument(
        "--port", type=int, default=0,
        help="TCP port to listen on (default 0 = pick a free port; the"
        " bound address is printed to stderr)",
    )
    shard_parser.add_argument(
        "--predicate", choices=sorted(_PREDICATES), default="jaccard"
    )
    shard_parser.add_argument(
        "--threshold", "-t", type=float, required=True,
        help="T for overlap predicates, fraction for the others",
    )
    shard_parser.add_argument(
        "--tokenizer", choices=sorted(_TOKENIZERS), default="words",
        help="how to derive the element set from each record",
    )
    shard_parser.add_argument(
        "--input", "-i", default=None,
        help="full corpus file, used only to pin the token vocabulary"
        " and the global IDF statistics (required for cosine); records"
        " themselves arrive over the wire from the front end, which"
        " owns shard routing",
    )
    _add_merge_backend_option(shard_parser)
    _add_bitmap_options(shard_parser)

    return parser


# ----------------------------------------------------------------------
# Runtime context plumbing
# ----------------------------------------------------------------------


def _build_context(args) -> JoinContext | None:
    """A JoinContext for the flags given, or None when none were."""
    wanted = (
        getattr(args, "checkpoint", None) is not None
        or getattr(args, "deadline", None) is not None
        or getattr(args, "memory_budget", None) is not None
    )
    if not wanted:
        return None
    checkpointer = None
    if args.checkpoint is not None:
        try:
            checkpointer = JoinCheckpointer(
                args.checkpoint, interval_records=args.checkpoint_interval
            )
        except (OSError, ValueError) as exc:
            raise _CLIError(f"bad --checkpoint: {exc}") from exc
    try:
        return JoinContext(
            deadline_seconds=args.deadline,
            cancel_token=CancellationToken(),
            memory_budget_entries=args.memory_budget,
            checkpointer=checkpointer,
        )
    except ValueError as exc:
        raise _CLIError(str(exc)) from exc


@contextmanager
def _sigint_cancels(context: JoinContext | None):
    """Route Ctrl-C into cooperative cancellation while a join runs.

    The driver then flushes the checkpoint (when one is configured)
    before raising JoinCancelled, so SIGINT never loses progress.
    Outside the main thread (or without a context) this is a no-op and
    the default KeyboardInterrupt applies.
    """
    if context is None or threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = signal.getsignal(signal.SIGINT)

    def handler(signum, frame):
        context.cancel("SIGINT")

    signal.signal(signal.SIGINT, handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)


def _approx_kwargs(args) -> dict:
    """Extra construction kwargs for the approx algorithm, else {}."""
    if getattr(args, "algorithm", None) != "approx":
        return {}
    kwargs = {"seed": getattr(args, "seed", 0)}
    target = getattr(args, "target_recall", None)
    if target is not None:
        kwargs["target_recall"] = target
    return kwargs


def _print_approx_summary(args, result) -> None:
    """One stderr line of approx-mode accounting (join and dedupe)."""
    if getattr(args, "algorithm", None) != "approx":
        return
    extra = result.extra
    parts = [f"target_recall={getattr(args, 'target_recall', 0.9)}"]
    parts.append(f"seed={extra.get('approx_seed', getattr(args, 'seed', 0))}")
    reps = extra.get("approx_repetitions")
    if reps is not None:
        parts.append(f"repetitions={reps}")
    estimate = extra.get("recall_estimate")
    if estimate is not None:
        truth = extra.get("recall_sample_truth", 0)
        parts.append(f"sampled_recall={estimate:.3f} (over {truth} true pairs)")
    if extra.get("approx_recall_capped"):
        parts.append("repetition cap hit: target not reachable")
    print(f"# approx: {', '.join(parts)}", file=sys.stderr)


def _make_cli_algorithm(args):
    """Instantiate the requested algorithm with CLI-friendly errors."""
    try:
        return make_algorithm(
            args.algorithm,
            bitmap_filter=_bitmap_config(args),
            merge_backend=args.merge_backend,
            index_backend=getattr(args, "index_backend", None),
            index_path=getattr(args, "index_path", None),
            **_approx_kwargs(args),
        )
    except ValueError as exc:
        raise _CLIError(str(exc)) from exc


def _run_join(args, dataset: Dataset, predicate, context: JoinContext | None):
    if getattr(args, "mode", "exact") == "approx":
        # --mode approx supplies its own candidate generator; only the
        # default --algorithm (or an explicit "approx") composes with it.
        if args.algorithm not in ("probe-cluster", "approx"):
            raise _CLIError(
                f"--mode approx cannot run --algorithm {args.algorithm!r};"
                " drop --algorithm (approx replaces the candidate generator)"
            )
        args.algorithm = "approx"
    workers = getattr(args, "workers", 1)
    if workers < 1:
        raise _CLIError(f"--workers must be >= 1, got {workers}")
    # Built on both paths so an unknown name or a bad knob is a CLI
    # one-liner; parallel_join builds its own copy for the workers.
    algorithm = _make_cli_algorithm(args)
    if workers > 1:
        from repro.parallel import parallel_join

        if getattr(args, "index_path", None) is not None:
            # Every worker builds its own index; a single pinned file
            # would have them clobbering each other.
            raise _CLIError("--index-path cannot be combined with --workers > 1")
        if context is None:
            # A bare context so Ctrl-C still cancels the worker pool
            # cooperatively instead of killing it mid-stream.
            context = JoinContext(cancel_token=CancellationToken())
        with _sigint_cancels(context):
            result = parallel_join(
                dataset,
                predicate,
                algorithm=args.algorithm,
                workers=workers,
                context=context,
                bitmap_filter=_bitmap_config(args),
                merge_backend=args.merge_backend,
                index_backend=getattr(args, "index_backend", None),
                **_approx_kwargs(args),
            )
        if args.algorithm == "approx" and not result.degraded and len(dataset):
            # Workers run as parallel shards and skip the per-shard
            # estimate (it would only see a slice of the pair set), so
            # sample recall here against the merged pairs instead.
            from repro.approx import estimate_recall

            result.extra["approx_seed"] = getattr(args, "seed", 0)
            result.extra.update(
                estimate_recall(
                    dataset,
                    predicate,
                    result.pair_set(),
                    seed=getattr(args, "seed", 0),
                )
            )
        return result
    with _sigint_cancels(context):
        return algorithm.join(dataset, predicate, context=context)


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------


class _DrainRequested(Exception):
    """SIGINT/SIGTERM arrived while serving; shut down gracefully."""


@contextmanager
def _drain_signals():
    """Turn SIGINT/SIGTERM into :class:`_DrainRequested` while serving.

    Raising from the handler aborts even a ``readline`` blocked on
    stdin (PEP 475 only retries the call when the handler returns
    normally), so the serve loop wakes up immediately. Outside the main
    thread this is a no-op and default signal behaviour applies.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    previous = {
        sig: signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)
    }

    def handler(signum, frame):
        raise _DrainRequested(signal.Signals(signum).name)

    for sig in previous:
        signal.signal(sig, handler)
    try:
        yield
    finally:
        for sig, old in previous.items():
            signal.signal(sig, old)


def _emit_query_result(qid: int, future, timeout: float) -> bool:
    """Print one query's matches as TSV; returns False on failure.

    Sharded answers carry a fourth completeness column
    (``complete``/``partial``) so downstream consumers can tell an
    exact empty answer from one that lost shards. A sharded query with
    no surviving matches still emits one status row (``qid  -  -
    complete|partial``) — otherwise an empty partial answer would be
    indistinguishable in the TSV stream from an exact empty one.
    Partial answers also get a stderr note naming the lost shards.
    """
    try:
        matches = future.result(timeout=timeout)
    except JoinRuntimeError as exc:
        print(f"repro: query {qid}: {exc}", file=sys.stderr)
        return False
    except FuturesTimeout:
        print(f"repro: query {qid}: no result after {timeout:.1f}s", file=sys.stderr)
        return False
    suffix = ""
    if isinstance(matches, ShardedResult):
        status = "partial" if matches.partial else "complete"
        suffix = f"\t{status}"
        if matches.partial:
            print(
                f"repro: query {qid}: partial result"
                f" (lost shards {list(matches.shards_failed)})",
                file=sys.stderr,
            )
        if not len(matches):
            print(f"{qid}\t-\t-\t{status}")
    for pair in matches:
        print(f"{qid}\t{pair.rid_a}\t{pair.similarity:.4f}{suffix}")
    return True


def _global_corpus_stats(corpus: list[str], tokenizer) -> CorpusStats:
    """IDF statistics over the whole corpus for cosine serving.

    A bare ``CosinePredicate`` binds whatever corpus its index holds at
    first insert — one record on the incremental add path, and a
    per-shard sub-corpus under ``ShardedIndexServer`` (whose contract
    requires precomputed global statistics for corpus-dependent
    predicates). Precomputing here gives every serving configuration
    the same frozen preprocessing-pass IDF the batch join uses. Token
    ids are assigned exactly as the indexes' vocabulary will assign
    them (insertion order over the same corpus, same tokenizer), so
    the stats key on the same ids.
    """
    vocabulary: dict[str, int] = {}
    records = []
    for text in corpus:
        ids = {
            vocabulary.setdefault(token, len(vocabulary))
            for token in tokenizer(text)
        }
        records.append(tuple(sorted(ids)))
    return CorpusStats(records)


def _print_serve_health(server) -> None:
    health = server.health()

    def _ms(seconds: float | None) -> str:
        return "-" if seconds is None else f"{seconds * 1000.0:.1f}ms"

    # One cache, or each shard's own (remote ones included), summed.
    rows = health["shards"] if "shards" in health else [health]
    caches = [row["cache"] for row in rows if row["cache"] is not None]
    cache_note = ""
    if caches:
        hits = sum(cache["hits"] for cache in caches)
        lookups = hits + sum(cache["misses"] for cache in caches)
        cache_note = f" cache {hits}/{lookups} hits,"

    if "shards" in health:
        latency = health["latency"]
        partial = health["partial"]
        hedging = health["hedging"]
        counters = health["index"]["counters"]
        breaker_states = [
            row["breaker"]["state"] if row["breaker"] else "off"
            for row in health["shards"]
        ]
        hedge_note = (
            f" hedges {hedging['issued']} issued/{hedging['wins']} won,"
            if hedging["enabled"]
            else ""
        )
        retries = ",".join(str(row["retries"]) for row in health["shards"])
        remote_note = ""
        if any(row["remote"] for row in health["shards"]):
            reconnects = ",".join(
                str(row["reconnects"]) for row in health["shards"]
            )
            beats = health["heartbeat"]
            remote_note = (
                f" reconnects={reconnects},"
                f" heartbeats {beats['ok']} ok/{beats['failed']} failed,"
            )
        print(
            f"# serve: {health['completed']} completed"
            f" ({partial['partial']} partial), {health['failed']} failed,"
            f" {health['shed']} shed, {health['retried']} retried,"
            f" shards={health['router']['shards']}"
            f" spread={health['router']['spread']},"
            f" retries={retries},"
            f"{remote_note}"
            f"{hedge_note}"
            f"{cache_note}"
            f" p50 {_ms(latency['p50_seconds'])}, p99 {_ms(latency['p99_seconds'])},"
            f" breakers={','.join(breaker_states)},"
            f" unknown_query_tokens={counters.get('unknown_query_tokens', 0)}",
            file=sys.stderr,
        )
        return

    latency = health["latency"]
    breaker = health["breaker"]
    counters = health["index"]["counters"]
    pool = health["pool"]
    print(
        f"# serve: {health['completed']} completed, {health['failed']} failed,"
        f" {health['shed']} shed, {health['retried']} retried,"
        f" pool {pool['busy']}/{pool['total']} busy,"
        f"{cache_note}"
        f" p50 {_ms(latency['p50_seconds'])}, p99 {_ms(latency['p99_seconds'])},"
        f" breaker={breaker['state'] if breaker else 'off'},"
        f" unknown_query_tokens={counters.get('unknown_query_tokens', 0)}",
        file=sys.stderr,
    )


def _corpus_vocabulary(corpus: list[str], tokenizer) -> dict[str, int]:
    """Token ids assigned in first-occurrence order over ``corpus``.

    The same assignment :func:`_global_corpus_stats` makes (and the one
    an index filled from this corpus would make), so a shard node in a
    different process keys its cosine IDF statistics on the same ids
    the front end does. Tokenizers return first-occurrence-ordered
    lists, so the assignment is deterministic across processes.
    """
    vocabulary: dict[str, int] = {}
    for text in corpus:
        for token in tokenizer(text):
            vocabulary.setdefault(token, len(vocabulary))
    return vocabulary


def _shard_serve(args) -> int:
    """The ``shard-serve`` subcommand: host one shard behind a socket."""
    if not 0 <= args.port <= 65535:
        raise _CLIError(f"--port must be in [0, 65535], got {args.port}")
    try:
        predicate = _PREDICATES[args.predicate](args.threshold)
    except ValueError as exc:
        raise _CLIError(f"bad --threshold for {args.predicate}: {exc}") from exc
    tokenizer = _TOKENIZERS[args.tokenizer]
    vocabulary = None
    if args.input is not None:
        corpus = _read_lines(args.input)
        if not corpus:
            raise _CLIError(f"no records in {args.input} (empty input)")
        vocabulary = _corpus_vocabulary(corpus, tokenizer)
        if isinstance(predicate, CosinePredicate):
            predicate = CosinePredicate(
                args.threshold, stats=_global_corpus_stats(corpus, tokenizer)
            )
    elif isinstance(predicate, CosinePredicate):
        # Without the global corpus the node would bind IDF weights to
        # whatever subset the front end routes to it, and its scores
        # would silently diverge from the other shards'.
        raise _CLIError(
            "cosine shard-serve needs --input CORPUS to pin the global"
            " IDF statistics"
        )
    index = SimilarityIndex(
        predicate,
        tokenizer=tokenizer,
        bitmap_filter=_bitmap_config(args),
        merge_backend=args.merge_backend,
        vocabulary=vocabulary,
    )
    try:
        node = ShardServer(index, host=args.host, port=args.port)
        node.start()
    except OSError as exc:
        detail = exc.strerror or str(exc)
        raise _CLIError(f"cannot listen on {args.host}:{args.port}: {detail}") from exc
    host, port = node.address
    print(
        f"# shard-serve: listening on {host}:{port}"
        f" ({args.predicate} t={args.threshold}, {args.tokenizer})",
        file=sys.stderr,
    )
    interrupted = None
    try:
        with _drain_signals():
            try:
                threading.Event().wait()
            except _DrainRequested as exc:
                interrupted = str(exc)
    finally:
        health = node.health()
        node.stop()
        requests = sum(health["requests"].values())
        print(
            f"# shard-serve: {interrupted or 'stopping'}:"
            f" {health['records']} records, epoch {health['epoch']},"
            f" binding {health['binding']},"
            f" {requests} requests, {health['errors']} errors",
            file=sys.stderr,
        )
    return EXIT_INTERRUPTED if interrupted == "SIGINT" else 0


def _serve(args, corpus: list[str]) -> int:
    """The ``serve`` subcommand: index the corpus, answer query lines."""
    if args.queries == "-" and args.input == "-":
        raise _CLIError("--input and --queries cannot both read stdin")
    if args.workers < 1:
        raise _CLIError(f"--workers must be >= 1, got {args.workers}")
    if args.queue_limit < 1:
        raise _CLIError(f"--queue-limit must be >= 1, got {args.queue_limit}")
    if args.retries < 1:
        raise _CLIError(f"--retries must be >= 1, got {args.retries}")
    if args.query_cache < 0:
        raise _CLIError(f"--query-cache must be >= 0, got {args.query_cache}")
    if args.shards < 1:
        raise _CLIError(f"--shards must be >= 1, got {args.shards}")
    if args.shard_workers < 1:
        raise _CLIError(f"--shard-workers must be >= 1, got {args.shard_workers}")
    if args.hedge_delay is not None and args.hedge_delay <= 0:
        raise _CLIError(f"--hedge-delay must be > 0, got {args.hedge_delay}")
    if args.heartbeat_interval <= 0:
        raise _CLIError(
            f"--heartbeat-interval must be > 0, got {args.heartbeat_interval}"
        )
    endpoints = None
    if args.shard_endpoints is not None:
        endpoints = [spec.strip() for spec in args.shard_endpoints.split(",")]
        if not endpoints or any(not spec for spec in endpoints):
            raise _CLIError(
                "--shard-endpoints needs a non-empty comma-separated list"
                " of 'host:port' or 'local' entries"
            )
        for spec in endpoints:
            if spec.lower() != "local":
                try:
                    parse_endpoint(spec)
                except ValueError as exc:
                    raise _CLIError(
                        f"bad --shard-endpoints entry {spec!r}: {exc}"
                    ) from exc
        if args.shards > 1 and args.shards != len(endpoints):
            raise _CLIError(
                f"--shards {args.shards} does not match the"
                f" {len(endpoints)} entries in --shard-endpoints"
            )
        args.shards = len(endpoints)
    if args.shards == 1 and endpoints is None:
        for flag, name in (
            (args.hedge_delay is not None, "--hedge-delay"),
            (args.require_complete, "--require-complete"),
        ):
            if flag:
                raise _CLIError(f"{name} requires --shards > 1")
    try:
        predicate = _PREDICATES[args.predicate](args.threshold)
    except ValueError as exc:
        raise _CLIError(f"bad --threshold for {args.predicate}: {exc}") from exc
    if isinstance(predicate, CosinePredicate):
        # Pin cosine's IDF weights to the *global* corpus up front.
        # Deferred binding happens at the first add — a 1-record
        # "corpus" — and per-shard binding would score against
        # sub-corpus frequencies; either way the weights would not be
        # the paper's preprocessing-pass IDF, and sharded and
        # single-index answers could silently diverge.
        predicate = CosinePredicate(
            args.threshold,
            stats=_global_corpus_stats(corpus, _TOKENIZERS[args.tokenizer]),
        )

    retry_policy = RetryPolicy(max_attempts=args.retries) if args.retries > 1 else None
    try:
        if args.shards > 1 or endpoints is not None:
            server = ShardedIndexServer(
                predicate,
                shards=args.shards,
                tokenizer=_TOKENIZERS[args.tokenizer],
                workers=args.workers,
                shard_workers=args.shard_workers,
                queue_limit=args.queue_limit,
                default_deadline=args.query_deadline,
                query_cache=args.query_cache,
                retry_policy=retry_policy,
                breaker_factory=lambda: CircuitBreaker(
                    failure_threshold=args.breaker_threshold,
                    cooldown_seconds=args.breaker_cooldown,
                ),
                hedge=(
                    HedgePolicy(delay=args.hedge_delay)
                    if args.hedge_delay is not None
                    else None
                ),
                bitmap_filter=_bitmap_config(args),
                merge_backend=args.merge_backend,
                shard_endpoints=endpoints,
                heartbeat_interval=(
                    args.heartbeat_interval if endpoints is not None else None
                ),
                # Records routed to remote nodes never pass through the
                # front end's vocabulary, so prefill it with the
                # full-corpus assignment — the one the global stats and
                # the shard-serve nodes key on.
                vocabulary=(
                    _corpus_vocabulary(corpus, _TOKENIZERS[args.tokenizer])
                    if endpoints is not None
                    else None
                ),
            )
            for line in corpus:
                server.add(line)
        else:
            index = SimilarityIndex(
                predicate,
                tokenizer=_TOKENIZERS[args.tokenizer],
                bitmap_filter=_bitmap_config(args),
                merge_backend=args.merge_backend,
            )
            for line in corpus:
                index.add(line)
            server = IndexServer(
                index,
                workers=args.workers,
                queue_limit=args.queue_limit,
                default_deadline=args.query_deadline,
                query_cache=args.query_cache,
                retry_policy=retry_policy,
                breaker=CircuitBreaker(
                    failure_threshold=args.breaker_threshold,
                    cooldown_seconds=args.breaker_cooldown,
                ),
            )
    except ValueError as exc:
        # e.g. a --breaker-threshold or --breaker-cooldown out of range
        raise _CLIError(str(exc)) from exc

    if args.queries == "-":
        stream = sys.stdin
    else:
        try:
            stream = open(args.queries, "r", encoding="utf-8")
        except OSError as exc:
            detail = exc.strerror or str(exc)
            raise _CLIError(f"cannot read {args.queries}: {detail}") from exc

    # Emission stays in submission order through a sliding window of
    # futures, sized to keep every worker busy without buffering the
    # whole query stream.
    window = 2 * args.workers
    result_timeout = args.drain_timeout + 1.0
    submit_kwargs = {"require_complete": True} if args.require_complete else {}
    pending: deque[tuple[int, object]] = deque()
    qid = 0
    failures = 0
    interrupted = None
    server.start()
    try:
        with _drain_signals():
            try:
                for line in stream:
                    text = line.rstrip("\n")
                    if not text.strip():
                        continue
                    this_qid, qid = qid, qid + 1
                    try:
                        pending.append((this_qid, server.submit(text, **submit_kwargs)))
                    except ServerOverloaded as exc:
                        print(f"repro: query {this_qid}: {exc}", file=sys.stderr)
                        failures += 1
                        continue
                    while len(pending) > window:
                        if not _emit_query_result(*pending.popleft(), result_timeout):
                            failures += 1
            except _DrainRequested as exc:
                interrupted = str(exc)
                print(
                    f"repro: {interrupted}: draining"
                    f" ({len(pending)} queries in flight)",
                    file=sys.stderr,
                )
    finally:
        if stream is not sys.stdin:
            stream.close()
    # Handlers are restored: a second Ctrl-C raises KeyboardInterrupt
    # and aborts the drain through main()'s generic exit-130 path.
    while pending:
        if not _emit_query_result(*pending.popleft(), result_timeout):
            failures += 1
    server.drain(timeout=args.drain_timeout)
    _print_serve_health(server)
    if interrupted:
        return EXIT_INTERRUPTED
    return 0 if failures == 0 else 1


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------


def _dispatch(args) -> int:
    if args.command == "shard-serve":
        return _shard_serve(args)

    lines = _read_lines(args.input)
    if not lines:
        raise _CLIError(f"no records in {args.input} (empty input)")

    if args.command == "editjoin":
        if args.algorithm not in ALGORITHMS:
            raise _CLIError(
                f"unknown algorithm {args.algorithm!r};"
                f" expected one of {sorted(ALGORITHMS)}"
            )
        result = edit_distance_join(
            lines,
            k=args.k,
            q=args.q,
            algorithm=args.algorithm,
            bitmap_filter=_bitmap_config(args),
            merge_backend=args.merge_backend,
            **_approx_kwargs(args),
        )
        for pair in result.sorted_pairs():
            print(f"{pair.rid_a}\t{pair.rid_b}\t{int(pair.similarity)}")
        print(
            f"# {len(result.pairs)} pairs, {result.elapsed_seconds:.2f}s",
            file=sys.stderr,
        )
        return 0

    if args.command == "serve":
        return _serve(args, lines)

    dataset = Dataset.from_texts(lines, _TOKENIZERS[args.tokenizer])

    if args.command == "stats":
        print(f"records\t{len(dataset)}")
        print(f"avg_set_size\t{dataset.average_set_size():.1f}")
        print(f"distinct_elements\t{dataset.n_distinct_tokens()}")
        print(f"word_occurrences\t{dataset.total_word_occurrences()}")
        return 0

    try:
        predicate = _PREDICATES[args.predicate](args.threshold)
    except ValueError as exc:
        raise _CLIError(f"bad --threshold for {args.predicate}: {exc}") from exc
    context = _build_context(args)
    result = _run_join(args, dataset, predicate, context)

    if args.command == "join":
        for pair in result.sorted_pairs():
            print(f"{pair.rid_a}\t{pair.rid_b}\t{pair.similarity:.4f}")
        degraded = (
            f", degraded from {result.degraded_from} to cluster-mem"
            if result.degraded
            else ""
        )
        print(
            f"# {len(result.pairs)} pairs, {result.elapsed_seconds:.2f}s,"
            f" algorithm={result.algorithm}{degraded}",
            file=sys.stderr,
        )
        _print_approx_summary(args, result)
        return 0

    # dedupe
    groups = connected_components(result.pairs, len(dataset))
    for members in groups:
        print("\t".join(str(rid) for rid in members))
    print(f"# {len(groups)} duplicate groups", file=sys.stderr)
    _print_approx_summary(args, result)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    checkpoint = getattr(args, "checkpoint", None)
    resume_hint = (
        f"; progress saved under {checkpoint}, rerun the same command to resume"
        if checkpoint is not None
        else ""
    )
    try:
        return _dispatch(args)
    except (_CLIError, UnsupportedConfiguration) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except JoinTimeout as exc:
        print(f"repro: {exc}{resume_hint}", file=sys.stderr)
        return EXIT_TIMEOUT
    except JoinCancelled as exc:
        print(f"repro: {exc}{resume_hint}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except KeyboardInterrupt:
        print("repro: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except JoinRuntimeError as exc:
        # Snapshot corruption, checkpoint mismatch, memory budget in
        # strict mode, ... — operational failures, not tracebacks.
        print(f"repro: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
