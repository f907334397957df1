"""Inverted-index compression substrate.

The paper (§4, §6) notes that "a wealth of techniques exist in IR for
compressing an inverted index. These would contribute to pushing the
limit upto which we can hold the index in memory", and that its
partitioning method is orthogonal to them. This subpackage supplies
the variable-byte codes (:mod:`repro.compression.varbyte`) that the
``index_backend='mmap-varbyte'`` join index
(:mod:`repro.storage.mmap_index`) stores its delta-coded posting blocks
in, behind block skip pointers.
"""

from repro.compression.varbyte import varbyte_decode, varbyte_encode

__all__ = [
    "varbyte_decode",
    "varbyte_encode",
]
