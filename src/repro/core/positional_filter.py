"""PPJoin+-style prefix/position/suffix filter stack.

The paper's threshold-sensitive merge inspired the prefix-filter line
(SSJoin, AllPairs, PPJoin, PPJoin+). :mod:`repro.core.prefix_filter`
stops at the basic prefix lemma; this algorithm adds the rest of the
stack, each layer a strictly tighter necessary condition on the
candidate before it reaches exact verification:

1. **Global ordering + prefix filter** — records canonicalized into
   the rarest-first rank order of :class:`~repro.core.token_order
   .TokenOrder`; only each record's prefix is indexed and probed.
2. **Length filter folded into the probe** — records are processed in
   ascending ``(size, rid)`` order, so posting lists carry
   non-decreasing sizes and the size bound ``T(r, s) <= |s|`` becomes
   one binary search per probed list (a prefix cut, not a scan).
3. **Position filter (PPJoin)** — postings carry the partner's size,
   rid and tail length from the token on; on each prefix-token match
   the candidate's total overlap is upper-bounded by
   ``overlap + min(tail_r, tail_s)``, and a candidate whose bound
   falls below the pair threshold (read from a per-probe table indexed
   by partner size) is killed mid-scan
   (``candidate_rejections_position``), never reaching
   ``candidates_checked``. The scan keeps one int per candidate: its
   overlap count, with the probe position of its last match packed
   above it for the suffix layer.
4. **Bitmap filter** (only with the ``bitmap_filter=`` knob) — the
   popcount weight cap of :mod:`repro.filters`, one
   :meth:`~repro.filters.pruner.BitmapPruner.screen` call per probe
   over its band-surviving candidates, each checked with the probe's
   signature entry against the exact pair threshold
   :meth:`~repro.core.base.SetJoinAlgorithm._verify_pair` would use.
   One check is a few big-int operations, far
   cheaper than the suffix probe's recursion, and on dirty data it
   rejects nearly everything the suffix probe would (address 3-grams,
   Jaccard 0.6: suffix recursions 1,289,008 -> 9,996), so it runs
   first. The adaptive controller may switch it off mid-run.
5. **Suffix filter (PPJoin+)** — survivors whose prefix overlap alone
   does not already qualify get a divide-and-conquer Hamming-distance
   lower bound on their unmatched suffixes, the tokens after the last
   prefix match (recursion depth capped by ``suffix_max_depth``,
   recursions counted in ``extra["suffix_recursions"]``); a bound that
   caps the total overlap below the pair threshold rejects the
   candidate (``candidate_rejections_suffix``) without verification.
   The last match's partner position is found for these candidates
   only, by one binary search for its token.

The position-filter survivors then run one cheapest-reject-first
cascade: band (when the predicate has one) and bitmap over the probe's
candidate list, then suffix -> exact verify per survivor, in scan
order. Every layer is a sound necessary condition, so the order
changes only the work, never the pairs; and with unit scores the
bitmap's cap is the same integer from either side of the pair, so the
probe-side entry gives the check ``_verify_pair`` would make. With the
bitmap always on (``adaptive=False``) and no band, the counters close
exactly::

    bitmap_checks == candidates_checked
    bitmap_checks - bitmap_rejects
        == candidate_rejections_suffix + pairs_verified

Soundness of the asymmetric prefixes: a record is indexed under the
prefix for ``t_index = ceil(T(|s|, |s|))`` — every later prober has
size >= |s| and T is non-decreasing, so ``t_index`` lower-bounds the
pair threshold of any pair s participates in as the indexed side. A
probe scans the (longer) prefix for ``t_probe = ceil(T(|r|, size_lo))``
where ``size_lo`` is the smallest *eligible* present size (one whose
required overlap fits inside it). Both are <= the true pair threshold,
and the prefix lemma holds for any such pair of relaxations, so every
qualifying pair that shares at least one token is generated. The one
caveat is shared with every index join in this package (including
``prefix-filter``): a pair with an *empty* intersection that still
satisfies the predicate (possible only for Hamming with ``|r| + |s| <=
k``) cannot surface from an inverted index; ``hamming_join`` brute-
forces that corner.

Every candidate that survives the stack is exactly verified by the
shared :meth:`~repro.core.base.SetJoinAlgorithm._verify_exact`, so the
emitted pairs are bit-identical to ``prefix-filter``/``naive`` — the
stack only changes how much work it takes to get there. The driver
protocol (deadlines, cancellation, checkpoint/resume, parallel shards)
and the bitmap knob are inherited from the shared base; the stack
never merges posting lists (candidates accumulate one token at a
time), so it declares ``merges = False`` and a ``merge_backend`` other
than ``"auto"`` is refused.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

from repro.core.base import UNIT, SetJoinAlgorithm
from repro.core.records import Dataset
from repro.core.results import MatchPair
from repro.core.token_order import TokenOrder
from repro.predicates.base import WEIGHT_EPS, BoundPredicate
from repro.utils.counters import CostCounters

__all__ = ["PositionalFilterJoin"]


def _suffix_hamming_lb(x, xlo, xhi, y, ylo, yhi, depth, calls):
    """Lower bound on ``|x[xlo:xhi] Δ y[ylo:yhi]|`` (PPJoin+ suffix probe).

    Both slices are strictly increasing rank-id sequences. Pick the
    middle element ``w`` of the x-slice and locate it in the y-slice:
    every common element smaller than ``w`` lies in the left halves and
    every larger one in the right halves, so the symmetric difference
    decomposes exactly and the bound recurses on both sides (+1 when
    ``w`` itself is unmatched). At ``depth`` 0 the slice-length
    difference is the bound. ``calls[0]`` accumulates the recursion
    count for the ``suffix_recursions`` counter.
    """
    calls[0] += 1
    lx = xhi - xlo
    ly = yhi - ylo
    if lx == 0 or ly == 0:
        return lx + ly
    if depth <= 0:
        return lx - ly if lx >= ly else ly - lx
    xmid = xlo + (lx >> 1)
    w = x[xmid]
    pos = bisect_left(y, w, ylo, yhi)
    if pos < yhi and y[pos] == w:
        return _suffix_hamming_lb(
            x, xlo, xmid, y, ylo, pos, depth - 1, calls
        ) + _suffix_hamming_lb(x, xmid + 1, xhi, y, pos + 1, yhi, depth - 1, calls)
    return (
        1
        + _suffix_hamming_lb(x, xlo, xmid, y, ylo, pos, depth - 1, calls)
        + _suffix_hamming_lb(x, xmid + 1, xhi, y, pos, yhi, depth - 1, calls)
    )


def _index_prefix_length(threshold, size: int) -> int:
    """How many leading tokens of a ``size``-token record are indexed:
    the prefix for ``t_index = ceil(T(|s|, |s|))`` (at least 1), the
    loosest pair threshold the record can see from any later
    (same-or-larger) prober. Not positive when the record cannot match
    anything."""
    norm = float(size)
    t_index = math.ceil(threshold(norm, norm) - WEIGHT_EPS)
    return size - (t_index if t_index > 1 else 1) + 1


class PositionalFilterJoin(SetJoinAlgorithm):
    """PPJoin+ filter stack on the global token ordering.

    Args:
        suffix_filter: apply the PPJoin+ suffix refinement to position-
            filter survivors (on by default; the position filter alone
            is already exact, just less selective).
        suffix_max_depth: recursion depth cap of the suffix bound.
            PPJoin+'s recommended 2 balances pruning against the cost
            of the probe itself; 0 degenerates to the plain
            length-difference bound.
    """

    name = "positional-filter"
    shardable = True
    resumable = True
    requires_scores = UNIT

    def __init__(self, suffix_filter: bool = True, suffix_max_depth: int = 2):
        if suffix_max_depth < 0:
            raise ValueError(
                f"suffix_max_depth must be >= 0, got {suffix_max_depth}"
            )
        self.suffix_filter = suffix_filter
        self.suffix_max_depth = suffix_max_depth

    def _run(
        self, dataset: Dataset, bound: BoundPredicate, counters: CostCounters
    ) -> list[MatchPair]:
        n = len(dataset)
        if n == 0:
            return []
        canon = TokenOrder.for_dataset(dataset).canonicalize_all(dataset)
        sizes_of = [len(record) for record in canon]
        # Ascending (size, rid): every record probes before it is
        # inserted, so each pair is generated exactly once, at the
        # larger record's scan position; appends then carry
        # non-decreasing sizes, which is what makes the length filter a
        # bisect cut into each posting list.
        order = sorted(range(n), key=sizes_of.__getitem__)
        distinct_sizes = sorted(set(sizes_of))
        n_sizes = len(distinct_sizes)
        band = bound.band_filter()
        threshold = bound.threshold
        ceil = math.ceil
        do_suffix = self.suffix_filter
        suffix_depth = self.suffix_max_depth
        suffix_calls = [0]

        # token (rank id) -> parallel posting columns: partner sizes
        # (non-decreasing — the bisect key), rids, and the partner's
        # tail from the token on (``size - position``: the most the
        # token and the rest of the record can add to an overlap).
        index: dict[int, tuple[list[int], list[int], list[int]]] = {}
        index_get = index.get
        pairs: list[MatchPair] = []
        # Reused per probe (allocating fresh containers per record was
        # measurable): candidate rid -> accumulated prefix overlap with
        # its last match's probe position packed above it (-1 = killed
        # by the position filter; see _probe), and partner size ->
        # required overlap for the current prober (filled per probe at
        # every eligible size; other slots hold stale values never read).
        acc: dict[int, int] = {}
        required_of = [0] * (distinct_sizes[-1] + 1)
        # Monotone cursor into distinct_sizes: the smallest size whose
        # required overlap still fits inside it. Eligibility only
        # shrinks as the prober grows (T is non-decreasing in the probe
        # norm), so the cursor never moves backwards.
        size_lo_idx = 0

        for _position, rid, replay in self._drive(order, counters, pairs):
            record = canon[rid]
            size = sizes_of[rid]

            if not replay:
                counters.probes += 1
                norm_r = float(size)
                while size_lo_idx < n_sizes:
                    partner = distinct_sizes[size_lo_idx]
                    t_partner = ceil(threshold(norm_r, float(partner)) - WEIGHT_EPS)
                    if (1 if t_partner < 1 else t_partner) <= partner:
                        break
                    size_lo_idx += 1
                # Every indexed partner is no larger than the prober.
                partner_sizes = distinct_sizes[
                    size_lo_idx:bisect_right(distinct_sizes, size, size_lo_idx)
                ]
                if partner_sizes:
                    self._probe(
                        bound,
                        rid,
                        record,
                        size,
                        partner_sizes,
                        index_get,
                        acc,
                        required_of,
                        canon,
                        sizes_of,
                        band,
                        do_suffix,
                        suffix_depth,
                        suffix_calls,
                        counters,
                        pairs,
                    )

            # Insert the (shorter) index prefix; a record whose own
            # symmetric threshold exceeds its size cannot match any
            # later prober either, so it is not indexed at all.
            prefix_length = _index_prefix_length(threshold, size)
            if prefix_length > 0:
                for position in range(prefix_length):
                    entry = index_get(record[position])
                    if entry is None:
                        index[record[position]] = entry = ([], [], [])
                    entry[0].append(size)
                    entry[1].append(rid)
                    entry[2].append(size - position)
                counters.index_entries += prefix_length

        if suffix_calls[0]:
            extra = counters.extra
            extra["suffix_recursions"] = (
                extra.get("suffix_recursions", 0) + suffix_calls[0]
            )
        return pairs

    def _probe(
        self,
        bound,
        rid,
        record,
        size,
        partner_sizes,
        index_get,
        acc,
        required_of,
        canon,
        sizes_of,
        band,
        do_suffix,
        suffix_depth,
        suffix_calls,
        counters,
        pairs,
    ) -> None:
        """One record's probe: scan and position-filter, band-filter
        the candidates, screen them through the bitmap in one call,
        then suffix-filter and verify each survivor.

        ``partner_sizes`` are the distinct indexed sizes a partner may
        have (eligible, and no larger than ``size``), ascending.
        """
        norm_r = float(size)
        threshold = bound.threshold
        ceil = math.ceil
        size_lo = partner_sizes[0]
        # Probe-side threshold: the loosest pair threshold against any
        # eligible indexed partner — attained at the smallest eligible
        # size because T is non-decreasing in the partner norm.
        t_probe = ceil(threshold(norm_r, float(size_lo)) - WEIGHT_EPS)
        if t_probe < 1:
            t_probe = 1
        prefix_length = size - t_probe + 1
        for size_s in partner_sizes:
            required = ceil(threshold(norm_r, float(size_s)) - WEIGHT_EPS)
            required_of[size_s] = required if required > 1 else 1

        # A live candidate's entry packs the probe position of its last
        # match above its overlap count: ``i << shift | overlap``, with
        # ``overlap <= prefix_length <= size < 1 << shift``. The suffix
        # layer reads the position back; the scan pays one mask per
        # posting for it instead of a second store.
        shift = size.bit_length()
        mask = (1 << shift) - 1
        acc.clear()
        acc_get = acc.get
        touched = 0
        searches = 0
        position_kills = 0
        for i in range(prefix_length):
            entry = index_get(record[i])
            if entry is None:
                continue
            post_sizes, post_rids, post_tails = entry
            # The length cut: almost always 0, and then the columns are
            # zipped as they are, without copies.
            cut = bisect_left(post_sizes, size_lo)
            searches += 1
            if cut:
                touched += len(post_rids) - cut
                postings = zip(post_rids[cut:], post_sizes[cut:], post_tails[cut:])
            else:
                touched += len(post_rids)
                postings = zip(post_rids, post_sizes, post_tails)
            tail_r = size - i
            stamp = (i << shift) + 1
            for sid, size_s, tail_s in postings:
                packed = acc_get(sid, 0)
                if packed < 0:
                    continue
                overlap = packed & mask
                upper = overlap + (tail_r if tail_r < tail_s else tail_s)
                if upper < required_of[size_s]:
                    acc[sid] = -1
                    position_kills += 1
                else:
                    acc[sid] = stamp + overlap
        counters.binary_searches += searches
        counters.list_items_touched += touched
        counters.candidate_rejections_position += position_kills

        # Band first, then the bitmap over the whole band-surviving list
        # in one call (cheapest reject first; the pruner takes each pair
        # threshold as _verify_pair would), then the suffix probe and
        # exact verify per survivor, in scan order.
        if band is not None:
            band_keys = band.keys
            radius = band.radius + 1e-12
            key_r = band_keys[rid]
        checked = 0
        candidates = []
        for sid, packed in acc.items():
            if packed < 0:
                continue
            checked += 1
            if band is not None and abs(band_keys[sid] - key_r) > radius:
                continue
            candidates.append(sid)
        counters.candidates_checked += checked
        pruner = self._bitmap
        if pruner is not None:
            candidates = pruner.screen(bound, rid, candidates, counters)
        for sid in candidates:
            size_s = sizes_of[sid]
            required = required_of[size_s]
            packed = acc[sid]
            overlap = packed & mask
            if do_suffix and overlap < required:
                # The last prefix match: the scan position packed in the
                # entry, and that token's place in the partner.
                other = canon[sid]
                i_last = packed >> shift
                j_last = bisect_left(other, record[i_last])
                suffix_r = size - i_last - 1
                suffix_s = size_s - j_last - 1
                distance = _suffix_hamming_lb(
                    record, i_last + 1, size,
                    other, j_last + 1, size_s,
                    suffix_depth, suffix_calls,
                )
                if overlap + ((suffix_r + suffix_s - distance) >> 1) < required:
                    counters.candidate_rejections_suffix += 1
                    continue
            if sid < rid:
                self._verify_exact(bound, sid, rid, counters, pairs)
            else:
                self._verify_exact(bound, rid, sid, counters, pairs)
