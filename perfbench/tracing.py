"""Spans at layer boundaries, recorded from outside the program.

The traced run installs wrappers around each layer's entry points
(module functions and class methods of :mod:`repro`), runs the workload,
and removes them again. Nothing under ``src/`` knows it is traced.

* A **span** is ``(trace, sid, parent, layer, start_ns, end_ns)``; spans
  of one operation share ``trace``. Spans are appended to an in-memory
  list and analysed after the run.
* A **leaf** is a hot, childless call (a merge, a verification, a bitmap
  check, an index insert, a lock wait). Recording every one as a span
  would cost more than the call itself, so leaves are aggregated per
  ``(enclosing span, layer)`` as a call count and a time sum — the same
  information a span per call would give the self-time arithmetic.
* Work counts are recorded at the same boundaries.

A layer's self time is its spans' durations minus the time their child
spans and leaves cover. Spans hand over between threads by the identity
of the query item: the submitting side registers its span for the item,
and the wrapper on the executing side adopts it as parent.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import Counter, defaultdict, namedtuple
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

Span = namedtuple("Span", "trace sid parent layer start end")

ROOT = "op"
_MISSING = object()
_NULL = nullcontext()


def layer_of(name: str) -> str:
    """Span names may carry a role suffix (``core.service:query``)."""
    return name.split(":", 1)[0]


class NullTracer:
    """The untraced run: same calls, nothing recorded."""

    def span(self, name, parent=None):
        return _NULL

    def handoff(self, item) -> None:
        pass

    def release(self, item) -> None:
        pass


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.leaves: dict[tuple[int, str], list[int]] = {}
        self.samples: dict[str, list] = defaultdict(list)
        self._thread_counts: list[dict] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._parents: dict[int, tuple[int, int]] = {}
        self._patches: list = []
        self._register_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        trace = parent[0] if parent is not None else sid
        stack.append((trace, sid))
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.spans.append(
                Span(trace, sid, parent[1] if parent is not None else 0, name, start, end)
            )

    def leaf(self, layer: str, ns: int) -> bool:
        """Charge one leaf call to the enclosing span; False outside any
        operation (set-up work is not traced)."""
        stack = getattr(self._local, "stack", None)
        if not stack:
            return False
        key = (stack[-1][1], layer)
        slot = self.leaves.get(key)
        if slot is None:
            self.leaves[key] = [1, ns]
        else:
            slot[0] += 1
            slot[1] += ns
        return True

    def count(self, deltas: dict) -> None:
        """Add work counts; per thread, so hot leaves take no lock."""
        mine = getattr(self._local, "counts", None)
        if mine is None:
            mine = self._local.counts = defaultdict(int)
            with self._register_lock:
                self._thread_counts.append(mine)
        for key, value in deltas.items():
            mine[key] += value

    @property
    def counts(self) -> Counter:
        """Work counts summed over threads (read after the run)."""
        total: Counter = Counter()
        for mine in self._thread_counts:
            total.update(mine)
        return total

    def handoff(self, item) -> None:
        """Make the current span the parent of work done on ``item``
        by another thread."""
        self._parents[id(item)] = self._stack()[-1]

    def release(self, item) -> None:
        self._parents.pop(id(item), None)

    # ------------------------------------------------------------------
    # Wrapper installation
    # ------------------------------------------------------------------

    def patch(self, owner, name: str, make) -> None:
        """Replace ``owner.name`` by ``make(original)``; undone by
        :meth:`uninstall`. Class methods stay class methods."""
        raw = vars(owner).get(name, _MISSING)
        target = getattr(owner, name) if raw is _MISSING else raw
        if isinstance(target, classmethod):
            replacement = classmethod(make(target.__func__))
        else:
            replacement = make(target)
        setattr(owner, name, replacement)
        self._patches.append((owner, name, raw))

    def uninstall(self) -> None:
        for owner, name, raw in reversed(self._patches):
            if raw is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, raw)
        self._patches.clear()

    def spanned(self, name):
        """Wrapper factory: one span per call. ``name`` may be a callable
        of the call's first argument (the instance)."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                label = name(args[0]) if callable(name) else name
                with tracer.span(label):
                    return fn(*args, **kwargs)

            return wrapper

        return make

    def adopted(self, name: str, item_of, rehand: bool = False):
        """Wrapper factory for work run on behalf of a handed-off item:
        the span's parent is whatever span registered the item. With
        ``rehand`` the new span becomes the item's parent for nested
        hand-offs (scatter to shard threads) while it runs."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                key = id(item_of(args))
                parent = tracer._parents.get(key)
                with tracer.span(name, parent):
                    if not rehand:
                        return fn(*args, **kwargs)
                    tracer._parents[key] = tracer._stack()[-1]
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        if parent is not None:
                            tracer._parents[key] = parent

            return wrapper

        return make

    def timed(self, layer: str, before=None, after=None):
        """Wrapper factory for leaf calls. ``before(args, kwargs)`` is
        read ahead of the call; ``after(state, args, result)`` returns a
        dict of counts recorded at the same boundary."""
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                state = before(args, kwargs) if before is not None else None
                start = perf_counter_ns()
                result = fn(*args, **kwargs)
                ns = perf_counter_ns() - start
                if tracer.leaf(layer, ns) and after is not None:
                    tracer.count(after(state, args, result))
                return result

            return wrapper

        return make

    def lock_wait(self, sample: str):
        """Wrapper factory for RWLock context managers: the leaf is the
        wait from the call until the lock is held."""
        tracer = self

        def make(fn):
            @contextmanager
            @functools.wraps(fn)
            def wrapper(lock):
                start = perf_counter_ns()
                with fn(lock):
                    waited = perf_counter_ns() - start
                    if tracer.leaf("runtime.rwlock", waited):
                        tracer.samples[sample].append(waited)
                    yield

            return wrapper

        return make

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------

    def analyse(self, scale: float = 1.0) -> "Analysis":
        return Analysis(self, scale)


def _union(intervals, lo=None, hi=None) -> int:
    """Total length covered by ``(start, end)`` intervals, optionally
    clipped to ``[lo, hi]``."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if lo is not None:
            start, end = max(start, lo), min(end, hi)
            if end <= start:
                continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Analysis:
    """Self time per layer, per-span durations, and the closure check.

    Only traces rooted at an ``op`` span (one per workload operation)
    count; spans outside operations are ignored. Reported times
    (``self_ns``, :meth:`durations`, :meth:`scaled`) are multiplied by
    ``scale``, the traced stretch's machine-speed factor (see
    :mod:`speed`); the closure check uses the raw times.
    """

    def __init__(self, tracer: Tracer, scale: float = 1.0):
        self.scale = scale
        spans = tracer.spans
        roots = [s for s in spans if s.parent == 0 and s.layer == ROOT]
        traced = {s.trace for s in roots}
        spans = [s for s in spans if s.trace in traced]
        self.spans = spans
        self.roots = roots
        self.children: dict[int, list[Span]] = defaultdict(list)
        for s in spans:
            if s.parent:
                self.children[s.parent].append(s)
        span_ids = {s.sid for s in spans}
        leaf_ns: dict[int, int] = defaultdict(int)
        self.leaf_calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        for (sid, layer), (calls, ns) in tracer.leaves.items():
            if sid not in span_ids:
                continue
            leaf_ns[sid] += ns
            self.leaf_calls[layer] += calls
            self.self_ns[layer] += ns
        self._leaf_ns = leaf_ns
        self.e2e_ns = sum(r.end - r.start for r in roots)
        self.unattributed_ns = 0
        self.attributed_ns = 0.0
        for s in spans:
            own = self._own(s)
            if s.layer == ROOT:
                self.unattributed_ns += own
            else:
                self.self_ns[s.layer] += own
        for root in roots:
            self.attributed_ns += self._attribute(root)
        self.self_ns = Counter({name: ns * scale for name, ns in self.self_ns.items()})

    def _own(self, s: Span) -> int:
        kids = self.children.get(s.sid, ())
        covered = _union(((k.start, k.end) for k in kids), s.start, s.end)
        return (s.end - s.start) - covered - self._leaf_ns.get(s.sid, 0)

    def _attribute(self, root: Span) -> float:
        """Layer time under one root, with concurrent siblings (a
        scatter to several shards) scaled to the wall time they cover,
        so parallel work is not counted twice. A child running outside
        its parent's interval is *not* scaled away: that is double
        counting, and the closure check catches it."""
        total = 0.0
        stack = [(root, 1.0)]
        while stack:
            s, factor = stack.pop()
            leaf = self._leaf_ns.get(s.sid, 0)
            if s is not root:
                total += factor * self._own(s)
            total += factor * leaf
            kids = self.children.get(s.sid, ())
            if not kids:
                continue
            busy = sum(k.end - k.start for k in kids)
            wall = _union((k.start, k.end) for k in kids)
            child_factor = factor * (wall / busy if busy > wall else 1.0)
            stack.extend((k, child_factor) for k in kids)
        return total

    # ------------------------------------------------------------------

    def layer_ns(self, layer: str) -> int:
        """Self time of a layer, summed over its span and leaf names."""
        return sum(ns for name, ns in self.self_ns.items() if layer_of(name) == layer)

    def durations(self, name: str) -> list[float]:
        return [(s.end - s.start) * self.scale for s in self.spans if s.layer == name]

    def scaled(self, values) -> list[float]:
        """Other raw timings of the traced stretch, at the same scale."""
        return [v * self.scale for v in values]

    def closes(self) -> bool:
        """Summed self times must not exceed the end-to-end time."""
        slack = 1000 * len(self.roots) + 1e-6 * self.e2e_ns
        return self.attributed_ns + self.unattributed_ns <= self.e2e_ns + slack

    def unattributed_frac(self) -> float:
        return self.unattributed_ns / self.e2e_ns if self.e2e_ns else 0.0
