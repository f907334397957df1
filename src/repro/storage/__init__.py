"""Disk-backed storage substrate.

* :class:`DiskRecordStore` — the "database" ClusterMem's second phase
  re-reads records from (§4.2), with fetch/seek accounting.
* :mod:`repro.storage.mmap_index` — the disk-resident inverted index
  (the §6 Heinz & Zobel direction), a write-once columnar format:
  :class:`MappedInvertedIndex` serves postings off a memory mapping —
  raw columns zero-copy (``index_backend='mmap'``,
  ``SimilarityIndex.save(format='mmap')``) or varbyte skip blocks
  decoded per touched block (``index_backend='mmap-varbyte'``);
  :class:`MappedIndexWriter` writes it, :class:`JoinIndexBuilder`
  builds one for a two-pass join.
"""

from repro.storage.mmap_index import (
    INDEX_BACKENDS,
    JoinIndexBuilder,
    MappedDataset,
    MappedIndexWriter,
    MappedInvertedIndex,
    MappedPostingList,
    resolve_index_backend,
)
from repro.storage.record_store import DiskRecordStore

__all__ = [
    "DiskRecordStore",
    "INDEX_BACKENDS",
    "JoinIndexBuilder",
    "MappedDataset",
    "MappedIndexWriter",
    "MappedInvertedIndex",
    "MappedPostingList",
    "resolve_index_backend",
]
