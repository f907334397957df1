"""Machine speed, measured by a fixed kernel between measurements.

The benchmark shares its CPUs with other tenants, and their load makes
the same Python code run up to ~1.9x slower for seconds to minutes at a
time (a fixed integer loop shows it as plainly as the workloads do).
Every timed stretch of a workload is therefore bracketed by runs of one
fixed pure-Python kernel that does not touch the program under test,
and the gated timings are reported at the reference speed:

    scaled_seconds = raw_seconds * REFERENCE_S / kernel_seconds

where ``kernel_seconds`` averages the kernel runs just before and just
after the stretch. A change to the program moves the raw time and
leaves the kernel alone, so it moves the scaled time by the same ratio;
outside load moves both and cancels. Raw figures stay in the report.
"""

from __future__ import annotations

from time import perf_counter

#: The kernel's time, in seconds, on the reference machine speed (the
#: unloaded speed of a 2-vCPU Intel Xeon container under Python 3.11).
REFERENCE_S = 0.010

_ITERATIONS = 20000
_PROBE = frozenset(range(0, 4096, 3))


def _kernel() -> int:
    """Dict, list, tuple, sort and set work in the mix the joins and
    the index use, on data that depends on nothing outside."""
    state = 12345
    table: dict[int, int] = {}
    batch: list[tuple[int, int]] = []
    total = 0
    for i in range(_ITERATIONS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        key = state % 4096
        table[key] = table.get(key, 0) + 1
        batch.append((key, i))
        if len(batch) == 64:
            batch.sort()
            total += batch[0][0] + len({k for k, _ in batch} & _PROBE)
            batch.clear()
    return total + len(table)


class Speed:
    """Kernel samples of one run, and factors for scaling timings."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        """Run the kernel once; returns its seconds."""
        start = perf_counter()
        _kernel()
        seconds = perf_counter() - start
        self.samples.append(seconds)
        return seconds

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Raw-to-reference time ratio of a stretch between two samples:
        below 1 when the machine ran slower than the reference."""
        return REFERENCE_S / ((before + after) / 2)

    def timed(self, fn):
        """Run ``fn`` between two kernel samples; returns
        ``(result, raw_seconds, scaled_seconds)``."""
        before = self.sample()
        start = perf_counter()
        result = fn()
        raw = perf_counter() - start
        return result, raw, raw * self.factor(before, self.sample())
