"""What one workload run hands back to the runner."""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from speed import REFERENCE_S, Speed


@dataclass
class Outcome:
    client_threads: int
    processes: int
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    #: Human-readable report lines (every end-to-end figure with its
    #: unit and sample count, including the ones the gate does not use).
    lines: list = field(default_factory=list)
    #: End-to-end metrics of the untraced run, name -> value.
    e2e: dict = field(default_factory=dict)
    #: Per-layer metrics of the traced run, name -> value.
    layers: dict = field(default_factory=dict)
    #: Seconds of each repeated set-up; setup_s is their median.
    setups: list = field(default_factory=list)
    #: Machine-speed samples taken around every timed stretch.
    speed: Speed = field(default_factory=Speed)

    def fail(self, why: str) -> None:
        """A failed check outside the timed operations."""
        self.attempted += 1
        self.failed += 1
        self.errors.append(why)

    def report(self, line: str) -> None:
        self.lines.append(line)

    def finish(self, peak_rss_mb: float) -> None:
        if self.setups:
            self.e2e["setup_s"] = statistics.median(self.setups)
            each = ", ".join(f"{s:.3f}" for s in self.setups)
            self.report(f"setup_s {self.e2e['setup_s']:.4f} s (median of {each})")
        self.e2e["peak_rss_mb"] = peak_rss_mb
        self.report(f"peak_rss_mb {peak_rss_mb:.2f} MiB")
        if self.speed.samples:
            kernel = statistics.median(self.speed.samples)
            self.report(
                f"machine_slowdown {kernel / REFERENCE_S:.3f}x (median of"
                f" {len(self.speed.samples)} kernel runs; timings above are scaled to 1x)"
            )
        frac = self.failed / self.attempted if self.attempted else 1.0
        self.report(f"fail_frac {frac:.6f} ({self.failed}/{self.attempted})")
