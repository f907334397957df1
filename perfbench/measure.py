"""Percentiles the sample supports, memory, and the machine record."""

from __future__ import annotations

import math
import os
import platform
import resource
import sys

#: A tail percentile is reported only when at least this many samples
#: lie beyond it.
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def supports(n: int, p: float) -> bool:
    """Whether ``n`` samples leave at least MIN_BEYOND beyond the p-th."""
    return n - math.ceil(p / 100.0 * n) >= MIN_BEYOND


def min_samples(p: float) -> int:
    """Smallest sample count that supports percentile ``p``."""
    n = 1
    while not supports(n, p):
        n += 1
    return n


def highest_supported(n: int) -> float | None:
    """The highest of the usual tail percentiles ``n`` samples support."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if supports(n, p):
            return p
    return None


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child, in MiB.

    ``ru_maxrss`` is in KiB on Linux (bytes on macOS).
    """
    unit = 1 if sys.platform == "darwin" else 1024
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) * unit / (1024 * 1024)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(client_threads: int, processes: int) -> dict:
    """What ran the benchmark, and with how much load."""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "client_threads": client_threads,
        "worker_processes": processes,
    }
