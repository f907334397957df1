"""Adaptive on/off controller for the bitmap filter.

A bitmap check is cheap but not free; on candidate streams that almost
always verify (MergeOpt hands the driver candidates whose match weight
is already known to clear the threshold) the filter is pure overhead.
The controller judges the checks in consecutive windows of
``sample_size`` and switches the filter off for the remainder of the
run at the first window whose reject rate cannot pay for its checks.

Judging every window, not just the first, matters because candidate
streams drift: ``positional-filter`` scans records in ascending size,
and small records are where the bitmap rejects most, so a first-window
verdict would keep a layer on long after it stopped paying. The switch
is one-way (on → off): a filter that stopped paying is not re-sampled.

The decision is **count-based, never time-based**: it is a pure
function of the (deterministic) reject sequence, so
``bitmap_checks``/``bitmap_rejects`` counters stay machine-independent
and the perf gate can hold them. Wall-clock never enters. Note the
decision only changes *which candidates get checked* — the emitted
pair set is identical either way, because the filter is sound.
"""

from __future__ import annotations

import sys

__all__ = ["AdaptiveController", "NullController"]


class NullController:
    """Always-on stand-in used when ``adaptive=False``."""

    __slots__ = ()
    active = True
    decided = True

    def room(self) -> int:
        return sys.maxsize

    def record(self, checks: int, rejects: int, counters) -> None:
        pass

    def observe(self, rejected: bool, counters) -> None:
        pass

    def state(self) -> dict:
        return {"adaptive": False, "active": True}


class AdaptiveController:
    """Judge each window of N checks; disable at the first low one.

    ``decided`` turns true when the first window closes; ``checks`` and
    ``rejects`` count the current (open) window, or the window that
    switched the filter off.

    Thread-safety note: the serving path shares one controller across
    concurrent readers. ``record`` races are benign — int updates may
    lose a count, shifting a window boundary by a few samples, but
    both possible decisions are sound and results are unaffected.
    """

    __slots__ = ("sample_size", "min_reject_rate", "checks", "rejects", "active", "decided")

    def __init__(self, sample_size: int = 512, min_reject_rate: float = 0.05):
        self.sample_size = sample_size
        self.min_reject_rate = min_reject_rate
        self.checks = 0
        self.rejects = 0
        self.active = True
        self.decided = False

    def room(self) -> int:
        """Checks left before the open window closes (at least 1)."""
        room = self.sample_size - self.checks
        return room if room > 0 else 1

    def observe(self, rejected: bool, counters) -> None:
        """Record one check outcome; judge the window once it fills."""
        if self.active:
            self.record(1, 1 if rejected else 0, counters)

    def record(self, checks: int, rejects: int, counters) -> None:
        """Record a run of ``checks`` outcomes, ``rejects`` of them
        rejects, that fits in the open window (``checks <= room()``);
        judge the window once it fills."""
        self.checks += checks
        self.rejects += rejects
        if self.checks >= self.sample_size:
            self.decided = True
            if self.rejects < self.min_reject_rate * self.checks:
                self.active = False
                if counters is not None:
                    extra = counters.extra
                    extra["bitmap_disabled"] = extra.get("bitmap_disabled", 0) + 1
            else:
                self.checks = 0
                self.rejects = 0

    def state(self) -> dict:
        """Introspection snapshot (serving health endpoint, tests)."""
        return {
            "adaptive": True,
            "active": self.active,
            "decided": self.decided,
            "sampled_checks": self.checks,
            "sampled_rejects": self.rejects,
        }
