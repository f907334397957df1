"""Candidate-pruning filters that sit between generation and verification.

See :mod:`repro.filters.bitmap` for the signature scheme and soundness
argument, :mod:`repro.filters.pruner` for the rejection rule and the
predicate flags that license it, and :mod:`repro.filters.controller`
for the adaptive on/off decision. Enable via
``similarity_join(..., bitmap_filter=True)``, the ``--bitmap-filter``
CLI flag, or ``SimilarityIndex(bitmap_filter=...)``.
"""

from repro.filters.bitmap import (
    BitmapFilterConfig,
    SignatureStore,
    bit_for_token,
    resolve_bitmap_filter,
)
from repro.filters.controller import AdaptiveController, NullController
from repro.filters.pruner import BitmapPruner

__all__ = [
    "AdaptiveController",
    "BitmapFilterConfig",
    "BitmapPruner",
    "NullController",
    "SignatureStore",
    "bit_for_token",
    "resolve_bitmap_filter",
]
