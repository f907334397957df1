"""Disk-backed storage substrate.

* :class:`DiskRecordStore` — the "database" ClusterMem's second phase
  re-reads records from (§4.2), with fetch/seek accounting.
* :mod:`repro.storage.mmap_index` — the disk-resident inverted index
  (the §6 Heinz & Zobel direction), a write-once columnar format:
  :class:`MappedInvertedIndex` serves postings off a memory mapping —
  raw columns zero-copy (``index_backend='mmap'``,
  ``SimilarityIndex.save(format='mmap')``) or varbyte skip blocks
  decoded per touched block (``index_backend='mmap-varbyte'``).
  :func:`write_index` writes every such file from a built
  :class:`~repro.core.inverted_index.ScoredInvertedIndex` (through the
  streaming :class:`MappedIndexWriter`); :func:`map_index` writes a
  two-pass join's index and opens it mapped.
"""

from repro.storage.mmap_index import (
    INDEX_BACKENDS,
    MappedDataset,
    MappedIndexWriter,
    MappedInvertedIndex,
    MappedPostingList,
    map_index,
    resolve_index_backend,
    write_index,
)
from repro.storage.record_store import DiskRecordStore

__all__ = [
    "DiskRecordStore",
    "INDEX_BACKENDS",
    "MappedDataset",
    "MappedIndexWriter",
    "MappedInvertedIndex",
    "MappedPostingList",
    "map_index",
    "resolve_index_backend",
    "write_index",
]
