"""Memory-mapped columnar posting storage (zero-copy serving).

In memory a posting list is columnar (a ``list`` of ids, an
``array('d')`` of scores) and frozen by ``seal()``; this module writes
those columns as ``int64``/``float64`` into a write-once on-disk file
that is ``mmap``-ed back verbatim. A probe then reads postings
*directly off the mapped columns* — no per-probe decode, no copy, no
deserialization — via :class:`MappedPostingList`, whose ``ids``/``scores`` are
``memoryview.cast`` views satisfying the same Sequence surface as
``PostingList.ids``/``.scores``. The heap merge, MergeOpt's galloping
skip, ``bisect`` cuts and the ScanCount accumulator all run unchanged
over them, so joins and queries against a mapped index are bit-identical
to the in-memory path.

File layout (format ``RPMX``, version 2 of the on-disk index lineage —
version 1 was the varbyte-only ``RPIX1`` layout, now refused with a
clear error)::

    preamble   magic "RPMX1\\n" | u16 version | u8 flags | u64 dir_off
               | u64 dir_len | u64 dir_crc32          (40 bytes, fixed)
    data       per-token regions, 8-byte aligned:
                 raw:        [ids int64 x n][scores float64 x n]
                 compressed: [scores float64 x n]
                             [block_firsts int64 x b][block_offsets int64 x b]
                             [varbyte gap blocks]
               named sections (a saved SimilarityIndex: records, payloads,
               vocabulary), 8-byte aligned, CRC'd
    directory  one JSON object: per-token parallel arrays
               (token, offset, byte length, count, max_score, crc32,
               payload byte length when compressed), index statistics
               (min_norm / n_entries / n_entities), section table, meta

Every file is a built :class:`~repro.core.inverted_index.ScoredInvertedIndex`
(plus named sections) written by :func:`write_index`; a two-pass join
maps its index through :func:`map_index`.

Integrity follows the :mod:`repro.runtime.snapshot` discipline: the
writer goes write-to-temp + fsync + atomic rename (a join's own temp
index, deleted when the join ends, is written in place); the reader
checks the magic, version and directory CRC at open, and each posting
region's CRC32 lazily on its first touch — so a multi-GB index still
opens in milliseconds, but a flipped byte anywhere raises
:class:`~repro.runtime.errors.SnapshotCorrupted` before it can produce a
wrong pair. Every corruption mode (truncation, bad magic, mangled
header, damaged column) surfaces as that one typed error.

Residency: the reader counts the directory once and each posting list's
entries on first touch into ``counters.index_entries`` (see
:meth:`MappedInvertedIndex.attach_counters`), so the existing
``JoinContext`` memory budget tracks *directory + touched postings*
rather than a fully materialized index — the whole point of mapping.

The compressed encoding chops the id column into blocks of
``_BLOCK_SIZE`` ids, varbyte-codes each block's gaps
(:mod:`repro.compression.varbyte`), and stores the block directory
(first ids, byte offsets) as two more mapped ``int64`` columns, so skip
metadata costs no decode either; :func:`_encode_blocks` writes the
blocks and :class:`_BlockedIds` decodes one lazily per random access.
"""

from __future__ import annotations

import json
import math
import mmap
import os
import struct
import sys
import tempfile
from array import array
from bisect import bisect_left
from collections.abc import Iterable, Sequence
from itertools import repeat
from zlib import crc32

from repro.compression.varbyte import varbyte_decode_deltas, varbyte_encode
from repro.core.inverted_index import ScoredInvertedIndex
from repro.core.records import Dataset
from repro.runtime.errors import SnapshotCorrupted
from repro.runtime.snapshot import AtomicWrite, RealFilesystem
from repro.utils.counters import CostCounters

__all__ = [
    "MappedDataset",
    "MappedIndexWriter",
    "MappedInvertedIndex",
    "MappedPostingList",
    "map_index",
    "mapped_column",
    "resolve_index_backend",
    "write_index",
]

_MAGIC = b"RPMX1\n"
_FORMAT_VERSION = 2
#: magic | version | flags | pad | directory offset / length / crc32
_PREAMBLE = struct.Struct("<6sHB7xQQQ")
_PREAMBLE_SIZE = 40
assert _PREAMBLE.size == _PREAMBLE_SIZE

_FLAG_COMPRESSED = 1
_FLAG_SCORED = 2
_FLAG_BIG_ENDIAN = 4

_BLOCK_SIZE = 64

#: Valid values of the ``index_backend`` knob: the in-RAM index, the
#: zero-copy raw mapped columns, and the varbyte skip-block mapped
#: columns (smaller file, one block decoded per random access).
INDEX_BACKENDS = ("memory", "mmap", "mmap-varbyte")


def resolve_index_backend(value) -> str:
    """Validate an ``index_backend`` knob value (None means ``memory``)."""
    if value is None:
        return "memory"
    if value not in INDEX_BACKENDS:
        raise ValueError(
            f"unknown index backend {value!r}; expected one of {INDEX_BACKENDS}"
        )
    return value


def _pad8(n: int) -> int:
    return (8 - n % 8) % 8


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------


class MappedIndexWriter:
    """Streams a write-once columnar index file.

    Postings must be added one whole token at a time (the format stores
    each token's columns contiguously). The file materializes under
    ``<path>.tmp`` and lands at ``path`` on :meth:`finish` through
    :class:`~repro.runtime.snapshot.AtomicWrite` (fsync + atomic rename,
    the JSON snapshots' protocol), so a crash mid-write never leaves a
    half-index where a reader looks.

    Args:
        path: final file location.
        scored: store a ``float64`` score column per token. Unit-score
            indexes omit it; readers synthesize constant 1.0 scores.
        compressed: varbyte gap-compress the id column into skip blocks
            instead of a raw ``int64`` column — smaller file, lazy
            per-block decode on read instead of zero-copy.
        fs: filesystem shim (fault injection in tests).
    """

    #: Land by write-to-temp + fsync + atomic rename (see
    #: :class:`_TempIndexWriter` for the one writer that does not).
    _durable = True

    def __init__(
        self,
        path: str,
        *,
        scored: bool = True,
        compressed: bool = False,
        fs: RealFilesystem | None = None,
    ):
        self.path = path
        self.scored = scored
        self.compressed = compressed
        if self._durable:
            self._landing = AtomicWrite(path, "wb", fs)
            self._handle = self._landing.handle
        else:
            self._landing = None
            self._handle = open(path, "r+b")
        # The preamble is written last (finish); data starts past it.
        self._handle.seek(_PREAMBLE_SIZE)
        self._tokens: list[int] = []
        self._offsets: list[int] = []
        self._lengths: list[int] = []
        self._counts: list[int] = []
        self._max_scores: list[float] = []
        self._payload_lengths: list[int] = []
        self._crcs: list[int] = []
        self._sections: dict[str, list[int]] = {}
        self.n_entries = 0
        self._finished = False

    # -- postings ------------------------------------------------------

    def add_posting(
        self,
        token: int,
        ids: Sequence[int],
        scores: Sequence[float] | None = None,
        max_score: float | None = None,
    ) -> None:
        """Write one token's posting columns (ids strictly increasing)."""
        if self._finished:
            raise ValueError("writer is finished")
        count = len(ids)
        if count == 0:
            return
        if self.scored:
            if scores is None:
                raise ValueError("scored writer needs a score column")
            score_column = scores if isinstance(scores, array) else array("d", scores)
            if max_score is None:
                max_score = max(score_column)
        else:
            score_column = None
            max_score = 1.0
        payload_length = 0
        if self.compressed:
            firsts, block_offsets, payload = _encode_blocks(ids)
            region = bytearray()
            if score_column is not None:
                region += score_column.tobytes()
            region += firsts.tobytes()
            region += block_offsets.tobytes()
            payload_length = len(payload)
            region += payload
        else:
            id_column = ids if isinstance(ids, array) else array("q", ids)
            previous = -1
            for entity_id in id_column:
                if entity_id <= previous:
                    raise ValueError("posting ids must be strictly increasing")
                previous = entity_id
            region = bytearray(id_column.tobytes())
            if score_column is not None:
                region += score_column.tobytes()
        offset = self._handle.tell()
        self._handle.write(region)
        self._handle.write(bytes(_pad8(len(region))))
        self._tokens.append(int(token))
        self._offsets.append(offset)
        self._lengths.append(len(region))
        self._counts.append(count)
        self._max_scores.append(float(max_score))
        self._payload_lengths.append(payload_length)
        self._crcs.append(crc32(bytes(region)))
        self.n_entries += count

    # -- named sections ------------------------------------------------

    def add_section(self, name: str, data: bytes) -> None:
        """Write a named CRC'd blob (serving state: records, payloads...)."""
        if self._finished:
            raise ValueError("writer is finished")
        if name in self._sections:
            raise ValueError(f"duplicate section {name!r}")
        offset = self._handle.tell()
        self._handle.write(data)
        self._handle.write(bytes(_pad8(len(data))))
        self._sections[name] = [offset, len(data), crc32(data)]

    # -- finish --------------------------------------------------------

    def finish(
        self,
        *,
        min_norm: float = math.inf,
        n_entities: int = 0,
        meta: dict | None = None,
    ) -> str:
        """Write directory + preamble, fsync, atomically land at ``path``."""
        if self._finished:
            raise ValueError("writer is finished")
        directory = {
            "format": _FORMAT_VERSION,
            "scored": self.scored,
            "compressed": self.compressed,
            "block_size": _BLOCK_SIZE,
            "min_norm": None if math.isinf(min_norm) else min_norm,
            "n_entries": self.n_entries,
            "n_entities": n_entities,
            "tokens": self._tokens,
            "offsets": self._offsets,
            "lengths": self._lengths,
            "counts": self._counts,
            "max_scores": self._max_scores,
            "payload_lengths": self._payload_lengths if self.compressed else [],
            "crcs": self._crcs,
            "sections": self._sections,
            "meta": meta or {},
        }
        encoded = json.dumps(directory, separators=(",", ":")).encode("utf-8")
        directory_offset = self._handle.tell()
        self._handle.write(encoded)
        flags = 0
        if self.compressed:
            flags |= _FLAG_COMPRESSED
        if self.scored:
            flags |= _FLAG_SCORED
        if sys.byteorder == "big":
            flags |= _FLAG_BIG_ENDIAN
        self._handle.seek(0)
        self._handle.write(
            _PREAMBLE.pack(
                _MAGIC,
                _FORMAT_VERSION,
                flags,
                directory_offset,
                len(encoded),
                crc32(encoded),
            )
        )
        self._finished = True
        if self._landing is None:
            self._handle.close()
        else:
            self._landing.commit()
        return self.path

    def abort(self) -> None:
        """Drop the temp file (error paths)."""
        if not self._finished:
            self._finished = True
            if self._landing is None:
                self._handle.close()
            else:
                self._landing.discard()

    def __enter__(self) -> "MappedIndexWriter":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        if exc_type is not None:
            self.abort()


class _TempIndexWriter(MappedIndexWriter):
    """Writer for the empty file :func:`map_index` just made with
    ``mkstemp``: writes it in place, without fsync or rename.

    Nothing reads that file after a crash, and the join deletes it when
    it ends, so durability buys nothing. Landing it is not free either:
    ext4 (``auto_da_alloc``) forces a file's data to disk when it is
    truncated or renamed over, which made each
    ``map_index(...).dispose()`` cost 30-60 ms on an ext4 volume of a
    2-vCPU VM, against well under 1 ms in place.
    """

    _durable = False


# ----------------------------------------------------------------------
# Zero-copy posting views
# ----------------------------------------------------------------------


class _ConstScores:
    """Constant-1.0 score column for unit-score indexes (no storage)."""

    __slots__ = ("_n",)

    def __init__(self, n: int):
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> float:
        if isinstance(i, slice):
            return [1.0] * len(range(*i.indices(self._n)))
        if not -self._n <= i < self._n:
            raise IndexError(i)
        return 1.0

    def __iter__(self):
        return repeat(1.0, self._n)


def _encode_blocks(ids: Sequence[int]) -> tuple[array, array, bytes]:
    """Varbyte skip blocks over strictly increasing ``ids``.

    Returns ``(firsts, offsets, payload)``: each ``_BLOCK_SIZE``-id
    block's first id and byte offset (``int64`` columns) and the
    concatenated blocks, each coded as gaps from its first id (so a
    block's own first gap is 0) — the layout :class:`_BlockedIds` reads.
    """
    gaps: list[int] = []
    previous = -1
    for entity_id in ids:
        if entity_id <= previous:
            raise ValueError("posting ids must be strictly increasing")
        gaps.append(entity_id - previous)
        previous = entity_id
    firsts = array("q")
    offsets = array("q")
    chunks: list[bytes] = []
    size = 0
    for start in range(0, len(gaps), _BLOCK_SIZE):
        encoded = varbyte_encode([0, *gaps[start + 1 : start + _BLOCK_SIZE]])
        firsts.append(ids[start])
        offsets.append(size)
        chunks.append(encoded)
        size += len(encoded)
    return firsts, offsets, b"".join(chunks)


class _BlockedIds:
    """Lazy-decoding id sequence over mapped skip blocks.

    ``block_firsts``/``block_offsets`` are mapped ``int64`` columns;
    ``payload`` is the varbyte gap stream. Random access decodes (and
    caches) one block; iteration streams blocks in order. Satisfies the
    Sequence surface the merge engines use (``len``, int indexing
    including negatives, iteration, ``bisect``/gallop probes).
    """

    __slots__ = ("_firsts", "_offsets", "_payload", "_n", "_cached", "_cache")

    def __init__(self, firsts, offsets, payload, n: int):
        self._firsts = firsts
        self._offsets = offsets
        self._payload = payload
        self._n = n
        self._cached = -1
        self._cache: list[int] | None = None

    def __len__(self) -> int:
        return self._n

    def _block(self, block: int) -> list[int]:
        if block == self._cached:
            return self._cache
        offsets = self._offsets
        end = offsets[block + 1] if block + 1 < len(offsets) else len(self._payload)
        decoded = varbyte_decode_deltas(
            self._payload,
            offsets[block],
            min(_BLOCK_SIZE, self._n - block * _BLOCK_SIZE),
            self._firsts[block],
            end,
        )
        self._cached = block
        self._cache = decoded
        return decoded

    def __getitem__(self, i: int) -> int:
        if isinstance(i, slice):
            raise TypeError("blocked id column does not support slicing")
        if i < 0:
            i += self._n
        if not 0 <= i < self._n:
            raise IndexError(i)
        block, within = divmod(i, _BLOCK_SIZE)
        if within == 0:
            # Block-first ids sit in their own mapped column: answer the
            # gallop's bracketing probes without decoding anything.
            return self._firsts[block]
        return self._block(block)[within]

    def __iter__(self):
        for block in range((self._n + _BLOCK_SIZE - 1) // _BLOCK_SIZE):
            yield from self._block(block)

    def bisect_from(self, target: int, start: int = 0) -> int:
        """``bisect_left(self, target, start)`` decoding one block.

        A plain bisect over this column decodes a block per probe; this
        bisects the mapped block-first column in C instead, then
        searches the single block that can hold the insertion point.
        """
        if start >= self._n:
            return start
        first_block = start // _BLOCK_SIZE
        block = bisect_left(self._firsts, target, first_block + 1) - 1
        base = block * _BLOCK_SIZE
        return base + bisect_left(self._block(block), target, max(start - base, 0))


class MappedPostingList:
    """Posting list whose columns live in a mapped file.

    Mirrors the read surface of
    :class:`~repro.core.inverted_index.PostingList` — ``ids``,
    ``scores``, ``max_score``, ``min_score``, ``len()``, ``sealed`` —
    with the columns backed by ``memoryview.cast`` views of the mapped
    file (or a lazy block decoder for compressed ids). Always sealed: the
    file is write-once. ``min_score`` is exact (1.0) for a file without
    a score column and ``-inf`` (no bound tracked) otherwise.
    """

    __slots__ = ("ids", "scores", "max_score", "min_score", "sealed")

    def __init__(self, ids, scores, max_score: float):
        self.ids = ids
        self.scores = scores
        self.max_score = max_score
        self.min_score = 1.0 if isinstance(scores, _ConstScores) else -math.inf
        self.sealed = True

    def __len__(self) -> int:
        return len(self.ids)


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------


def _corrupt(path: str, detail: str) -> SnapshotCorrupted:
    return SnapshotCorrupted(path, detail)


class MappedInvertedIndex:
    """Read-only inverted index served straight off a mapped file.

    Drop-in for the probe surface of
    :class:`~repro.core.inverted_index.ScoredInvertedIndex`
    (``probe_lists``, ``get``, ``min_norm``, ``n_entries``,
    ``n_entities``, ``len``/``in``) — every merge backend runs unchanged
    over it. Opening costs one small directory parse regardless of data
    size; posting bytes fault in on first touch and are shared read-only
    across threads and fork'd processes (the mapping survives fork).

    Integrity: magic/version/directory CRC are checked at open; each
    posting region's CRC32 on its first probe (memoized), raising
    :class:`~repro.runtime.errors.SnapshotCorrupted` — never wrong pairs.
    """

    def __init__(self):
        self.path = ""
        self.min_norm: float = math.inf
        self.n_entries = 0
        self.n_entities = 0
        self.lists_read = 0
        #: Entries whose columns have been touched at least once — the
        #: residency estimate the memory budget tracks (plus directory).
        self.touched_entries = 0
        self.touched_bytes = 0
        self.directory_bytes = 0
        self._mmap: mmap.mmap | None = None
        self._view: memoryview | None = None
        self._file = None
        self._position: dict[int, int] = {}
        self._offsets: list[int] = []
        self._lengths: list[int] = []
        self._counts: list[int] = []
        self._max_scores: list[float] = []
        self._payload_lengths: list[int] = []
        self._crcs: list[int] = []
        self._sections: dict[str, list[int]] = {}
        self._verified: bytearray = bytearray()
        self._touched: bytearray = bytearray()
        self._verified_sections: set[str] = set()
        self.meta: dict = {}
        self.scored = True
        self.compressed = False
        self._counters: CostCounters | None = None
        self._owns_path = False

    # -- open ----------------------------------------------------------

    @classmethod
    def open(cls, path: str, *, owns_path: bool = False) -> "MappedInvertedIndex":
        """Map an index file; validates preamble and directory.

        Raises :class:`~repro.runtime.errors.SnapshotCorrupted` for any
        damage: truncation, foreign/old magic, version or byte-order
        mismatch, directory checksum or shape violations.
        """
        index = cls()
        index.path = path
        index._owns_path = owns_path
        try:
            handle = open(path, "rb")
        except OSError as exc:
            raise _corrupt(path, f"cannot open: {exc}") from exc
        try:
            size = os.fstat(handle.fileno()).st_size
            if size < _PREAMBLE_SIZE:
                raise _corrupt(
                    path, f"truncated: {size} bytes, preamble needs {_PREAMBLE_SIZE}"
                )
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except SnapshotCorrupted:
            handle.close()
            raise
        except (OSError, ValueError) as exc:
            handle.close()
            raise _corrupt(path, f"cannot map: {exc}") from exc
        index._file = handle
        index._mmap = mapped
        index._view = memoryview(mapped)
        try:
            index._parse(size)
        except SnapshotCorrupted:
            index.close()
            raise
        return index

    def _parse(self, size: int) -> None:
        path = self.path
        magic, version, flags, dir_off, dir_len, dir_crc = _PREAMBLE.unpack(
            self._view[:_PREAMBLE_SIZE]
        )
        if magic != _MAGIC:
            if bytes(magic).startswith(b"RPIX"):
                raise _corrupt(
                    path,
                    "format version 1 (RPIX varbyte layout) is no longer"
                    " readable; rebuild the index with this version",
                )
            raise _corrupt(path, f"bad magic {bytes(magic)!r}")
        if version != _FORMAT_VERSION:
            raise _corrupt(
                path,
                f"format version {version} not supported (this build reads"
                f" version {_FORMAT_VERSION}); rebuild the index",
            )
        file_big_endian = bool(flags & _FLAG_BIG_ENDIAN)
        if file_big_endian != (sys.byteorder == "big"):
            raise _corrupt(
                path,
                "byte-order mismatch: file columns are"
                f" {'big' if file_big_endian else 'little'}-endian, this"
                f" machine is {sys.byteorder}-endian",
            )
        self.compressed = bool(flags & _FLAG_COMPRESSED)
        self.scored = bool(flags & _FLAG_SCORED)
        if dir_off < _PREAMBLE_SIZE or dir_off + dir_len > size:
            raise _corrupt(
                path,
                f"directory [{dir_off}, {dir_off + dir_len}) outside file"
                f" of {size} bytes (truncated?)",
            )
        directory_bytes = bytes(self._view[dir_off : dir_off + dir_len])
        if crc32(directory_bytes) != dir_crc:
            raise _corrupt(path, "directory checksum mismatch")
        try:
            directory = json.loads(directory_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _corrupt(path, f"directory is not valid JSON: {exc}") from exc
        self.directory_bytes = dir_len
        self._load_directory(directory, data_end=dir_off, size=size)

    def _load_directory(self, directory, data_end: int, size: int) -> None:
        path = self.path
        if not isinstance(directory, dict):
            raise _corrupt(path, "directory is not an object")
        tokens = directory.get("tokens")
        offsets = directory.get("offsets")
        lengths = directory.get("lengths")
        counts = directory.get("counts")
        crcs = directory.get("crcs")
        max_scores = directory.get("max_scores")
        payload_lengths = directory.get("payload_lengths")
        columns = [tokens, offsets, lengths, counts, crcs, max_scores]
        if any(not isinstance(column, list) for column in columns):
            raise _corrupt(path, "directory posting columns are malformed")
        n = len(tokens)
        if any(len(column) != n for column in (offsets, lengths, counts, crcs)):
            raise _corrupt(path, "directory posting columns disagree in length")
        if self.scored and len(max_scores) != n:
            raise _corrupt(path, "directory max_scores column disagrees in length")
        if self.compressed and (
            not isinstance(payload_lengths, list) or len(payload_lengths) != n
        ):
            raise _corrupt(path, "directory payload_lengths column is malformed")
        for i in range(n):
            offset, length = offsets[i], lengths[i]
            if (
                not isinstance(offset, int)
                or not isinstance(length, int)
                or offset < _PREAMBLE_SIZE
                or offset + length > data_end
                or offset + length > size
            ):
                raise _corrupt(
                    path, f"posting region {i} [{offset}, {offset + length}) is out of bounds"
                )
        sections = directory.get("sections", {})
        if not isinstance(sections, dict):
            raise _corrupt(path, "directory section table is malformed")
        for name, entry in sections.items():
            if (
                not isinstance(entry, list)
                or len(entry) != 3
                or not all(isinstance(v, int) for v in entry)
                or entry[0] < _PREAMBLE_SIZE
                or entry[0] + entry[1] > data_end
            ):
                raise _corrupt(path, f"section {name!r} table entry is malformed")
        min_norm = directory.get("min_norm")
        self.min_norm = math.inf if min_norm is None else float(min_norm)
        self.n_entries = int(directory.get("n_entries", 0))
        self.n_entities = int(directory.get("n_entities", 0))
        self._position = {token: i for i, token in enumerate(tokens)}
        if len(self._position) != n:
            raise _corrupt(path, "directory holds duplicate tokens")
        self._offsets = offsets
        self._lengths = lengths
        self._counts = counts
        self._max_scores = max_scores
        self._payload_lengths = payload_lengths or []
        self._crcs = crcs
        self._sections = sections
        self._verified = bytearray(n)
        self._touched = bytearray(n)
        meta = directory.get("meta", {})
        self.meta = meta if isinstance(meta, dict) else {}

    # -- residency accounting ------------------------------------------

    def attach_counters(self, counters: CostCounters) -> None:
        """Wire residency into the memory-budget runtime.

        Counts the directory once (one budget entry per token — the
        always-resident metadata) and, from then on, each posting list's
        entry count the first time a probe touches its columns. The
        ``JoinContext`` budget check reads ``counters.index_entries``,
        so a budget over a mapped index bounds *directory + touched
        postings* instead of the fully materialized index.
        """
        self._counters = counters
        counters.index_entries += len(self._position)

    # -- probing -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._position)

    def __contains__(self, token: int) -> bool:
        return token in self._position

    def tokens(self) -> Iterable[int]:
        return self._position.keys()

    def get(self, token: int) -> MappedPostingList | None:
        position = self._position.get(token)
        if position is None:
            return None
        return self._list_at(position)

    def _list_at(self, i: int) -> MappedPostingList:
        offset = self._offsets[i]
        length = self._lengths[i]
        count = self._counts[i]
        view = self._view
        if not self._verified[i]:
            if crc32(bytes(view[offset : offset + length])) != self._crcs[i]:
                raise _corrupt(
                    self.path,
                    f"posting column checksum mismatch at region {i}"
                    f" [{offset}, {offset + length})",
                )
            self._verified[i] = 1
        if not self._touched[i]:
            self._touched[i] = 1
            self.touched_entries += count
            self.touched_bytes += length
            if self._counters is not None:
                self._counters.index_entries += count
        self.lists_read += 1
        max_score = self._max_scores[i] if self.scored else 1.0
        if not self.compressed:
            ids = view[offset : offset + 8 * count].cast("q")
            if self.scored:
                scores = view[offset + 8 * count : offset + 16 * count].cast("d")
            else:
                scores = _ConstScores(count)
            return MappedPostingList(ids, scores, max_score)
        cursor = offset
        if self.scored:
            scores = view[cursor : cursor + 8 * count].cast("d")
            cursor += 8 * count
        else:
            scores = _ConstScores(count)
        n_blocks = (count + _BLOCK_SIZE - 1) // _BLOCK_SIZE
        firsts = view[cursor : cursor + 8 * n_blocks].cast("q")
        cursor += 8 * n_blocks
        block_offsets = view[cursor : cursor + 8 * n_blocks].cast("q")
        cursor += 8 * n_blocks
        payload = view[cursor : offset + length]
        expected = self._payload_lengths[i] if self._payload_lengths else len(payload)
        if len(payload) != expected:
            raise _corrupt(
                self.path,
                f"posting region {i}: payload is {len(payload)} bytes,"
                f" directory says {expected}",
            )
        ids = _BlockedIds(firsts, block_offsets, payload, count)
        return MappedPostingList(ids, scores, max_score)

    def probe_lists(
        self, tokens: Sequence[int], probe_scores: Sequence[float]
    ) -> list[tuple[MappedPostingList, float]]:
        """Posting views for the probe's words; same contract as
        :meth:`ScoredInvertedIndex.probe_lists`, zero decode."""
        out = []
        position_of = self._position.get
        for token, probe_score in zip(tokens, probe_scores):
            if probe_score == 0.0:
                continue
            position = position_of(token)
            if position is not None:
                out.append((self._list_at(position), probe_score))
        return out

    # -- sections ------------------------------------------------------

    def section(self, name: str) -> memoryview:
        """A named blob's bytes (CRC-checked on first access)."""
        entry = self._sections.get(name)
        if entry is None:
            raise KeyError(name)
        offset, length, expected_crc = entry
        view = self._view[offset : offset + length]
        if name not in self._verified_sections:
            if crc32(bytes(view)) != expected_crc:
                raise _corrupt(self.path, f"section {name!r} checksum mismatch")
            self._verified_sections.add(name)
        return view

    def has_section(self, name: str) -> bool:
        return name in self._sections

    def resident_bytes(self) -> int:
        """Residency estimate: directory + touched posting bytes."""
        return self.directory_bytes + self.touched_bytes

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        self._view = None
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:
                # A caller still holds posting views (memoryview exports
                # of the mapping). Drop our reference; the mapping stays
                # valid until the last view dies, then falls with it.
                pass
            self._mmap = None
        if self._file is not None:
            self._file.close()
            self._file = None

    def dispose(self) -> None:
        """Close, and remove the file when this index owns its path."""
        self.close()
        if self._owns_path and os.path.exists(self.path):
            os.remove(self.path)

    def __enter__(self) -> "MappedInvertedIndex":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Writing a built index
# ----------------------------------------------------------------------


def write_index(
    path: str,
    index: ScoredInvertedIndex,
    *,
    compressed: bool = False,
    sections: Iterable[tuple[str, bytes]] = (),
    meta: dict | None = None,
    fs: RealFilesystem | None = None,
) -> str:
    """Write a built :class:`ScoredInvertedIndex`, plus named
    ``sections``, as an RPMX file landing atomically at ``path``
    (through the filesystem shim ``fs``).

    Every mapped index is written here, so the file holds exactly the
    columns, list maxima and ``min_norm`` that ``ScoredInvertedIndex.insert``
    built, and a probe of it is bit-identical to a probe of ``index``.
    When every score is exactly 1.0 the file omits the score column
    (readers synthesize the constant), so unit-score predicates pay for
    ids only — the §4/§6 compressed footprint.
    """
    return _write_index(path, index, compressed, sections, meta, MappedIndexWriter, fs)


def _write_index(path, index, compressed, sections, meta, writer_class, fs=None) -> str:
    """:func:`write_index` through ``writer_class``."""
    postings = [(token, index.get(token)) for token in index.tokens()]
    scored = any(
        plist.min_score != 1.0 or plist.max_score != 1.0 for _, plist in postings
    )
    with writer_class(path, scored=scored, compressed=compressed, fs=fs) as writer:
        for token, plist in postings:
            writer.add_posting(token, plist.ids, plist.scores, plist.max_score)
        for name, data in sections:
            writer.add_section(name, data)
        return writer.finish(
            min_norm=index.min_norm, n_entities=index.n_entities, meta=meta
        )


def map_index(
    index: ScoredInvertedIndex, path: str | None = None, *, compressed: bool = False
) -> MappedInvertedIndex:
    """:func:`write_index` a join's built index, then open it mapped.

    Without a ``path`` the file is a temp file that the returned index
    owns: its :meth:`~MappedInvertedIndex.dispose` removes it. That
    file is written in place with no fsync (:class:`_TempIndexWriter`);
    a pinned ``path`` lands durably, like every other :func:`write_index`
    file.
    """
    owns_path = path is None
    writer_class = MappedIndexWriter
    if owns_path:
        fd, path = tempfile.mkstemp(prefix="repro-mmapindex-", suffix=".rpmx")
        os.close(fd)
        writer_class = _TempIndexWriter
    try:
        _write_index(path, index, compressed, (), None, writer_class)
    except BaseException:
        if owns_path and os.path.exists(path):
            os.remove(path)
        raise
    return MappedInvertedIndex.open(path, owns_path=owns_path)


# ----------------------------------------------------------------------
# Mapped serving dataset (records / payloads / vocabulary sections)
# ----------------------------------------------------------------------


class _MappedColumn:
    """Per-record values decoded on demand from mapped sections: value
    ``i`` is ``decode(data[offsets[i]:offsets[i + 1]])``."""

    __slots__ = ("_data", "_offsets", "_n", "_decode")

    def __init__(self, data, offsets, decode):
        self._data = data
        self._offsets = offsets
        self._n = len(offsets) - 1
        self._decode = decode

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, rid: int):
        if isinstance(rid, slice):
            return [self[i] for i in range(*rid.indices(self._n))]
        if rid < 0:
            rid += self._n
        if not 0 <= rid < self._n:
            raise IndexError(rid)
        return self._decode(self._data[self._offsets[rid] : self._offsets[rid + 1]])

    def __iter__(self):
        for rid in range(self._n):
            yield self[rid]

    def append(self, _value) -> None:
        raise TypeError("memory-mapped columns are read-only")


def _int64_section(index: "MappedInvertedIndex", name: str):
    """A section cast to a mapped ``int64`` column (typed error on shape)."""
    view = index.section(name)
    try:
        return view.cast("q")
    except (ValueError, TypeError) as exc:
        raise _corrupt(
            index.path, f"section {name!r} is not an int64 column: {exc}"
        ) from exc


def mapped_column(
    index: "MappedInvertedIndex",
    data_name: str,
    offsets_name: str,
    decode,
    *,
    int64: bool = False,
) -> _MappedColumn:
    """Lazy per-record ``decode``-d view over a section sliced by an
    ``int64`` offsets section: record token tuples (``int64=True``,
    ``decode=tuple``), payloads. Blob ``decode``s receive a
    ``memoryview`` slice."""
    data = _int64_section(index, data_name) if int64 else index.section(data_name)
    offsets = _int64_section(index, offsets_name)
    if len(offsets) == 0 or offsets[0] != 0 or offsets[-1] != len(data):
        raise _corrupt(
            index.path,
            f"{offsets_name!r} does not cover the {data_name!r} section",
        )
    return _MappedColumn(data, offsets, decode)


class MappedDataset(Dataset):
    """Read-only :class:`~repro.core.records.Dataset` over mapped
    columns: records and payloads decode per access (nothing is
    materialized up front); the statistics are ``Dataset``'s, so corpus
    ``frequency`` costs one streaming pass on first demand (only
    corpus-statistic predicates pay it)."""

    def __init__(self, records, vocabulary, payloads):
        # Not Dataset.__init__: it would materialize every record.
        self.records = records
        self.vocabulary = vocabulary
        self.payloads = payloads
        self._frequency = None
        self._id_to_token = None
