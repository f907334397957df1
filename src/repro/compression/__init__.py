"""Inverted-index compression substrate.

The paper (§4, §6) notes that "a wealth of techniques exist in IR for
compressing an inverted index. These would contribute to pushing the
limit upto which we can hold the index in memory", and that its
partitioning method is orthogonal to them. This subpackage supplies
those techniques from scratch:

* :mod:`repro.compression.varbyte` — variable-byte codes,
* :mod:`repro.compression.postings` — delta-encoded posting lists with
  block skip pointers, which the ``index_backend='mmap-varbyte'`` join
  index (:mod:`repro.storage.mmap_index`) stores as mapped regions.
"""

from repro.compression.postings import CompressedPostingList
from repro.compression.varbyte import varbyte_decode, varbyte_encode

__all__ = [
    "CompressedPostingList",
    "varbyte_decode",
    "varbyte_encode",
]
