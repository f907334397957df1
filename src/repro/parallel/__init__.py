"""Data-parallel sharded similarity joins over worker processes.

See :func:`parallel_join` for the entry point and
:mod:`repro.parallel.engine` / :mod:`repro.parallel.worker` for the
sharding and resume protocol. ``docs/operations.md`` covers worker
sizing and the per-shard checkpoint layout.
"""

from repro.parallel.engine import PARALLEL_ALGORITHMS, parallel_join

__all__ = ["PARALLEL_ALGORITHMS", "parallel_join"]
