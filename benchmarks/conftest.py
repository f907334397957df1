"""Benchmark session plumbing: the paper-style series report.

Each benchmark test measures one curve of one figure/table and registers
its data points through the ``report`` fixture. At session end the rows
are printed grouped by experiment — the same series the paper plots —
and merged into ``benchmarks/series_output.txt`` for EXPERIMENTS.md:
each experiment this session measured replaces its block there, and
every other experiment's block is kept (see ``merged_report``).
"""

from __future__ import annotations

import os
import re
from collections import defaultdict

import pytest

_ROWS: dict[str, list[tuple[str, dict]]] = defaultdict(list)

#: A block's first line in the report: ``=== <experiment> ===``.
_HEADER = re.compile(r"=== (.+) ===")


@pytest.fixture
def report():
    """Register one data point: report(experiment, series_label, **cols)."""

    def add(experiment: str, series: str, **columns) -> None:
        _ROWS[experiment].append((series, columns))

    return add


def _format_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _render() -> dict[str, list[str]]:
    """This session's report blocks: experiment -> header and rows."""
    blocks = {}
    for experiment, rows in _ROWS.items():
        block = blocks[experiment] = [f"=== {experiment} ==="]
        for series, columns in rows:
            rendered = "  ".join(
                f"{key}={_format_value(value)}" for key, value in columns.items()
            )
            block.append(f"  {series:34s} {rendered}")
    return blocks


def merged_report(existing: str, blocks: dict[str, list[str]]) -> str:
    """The report text ``existing`` with ``blocks`` merged in: a block
    replaces the same experiment's block where it stands, a new
    experiment goes before the first block that sorts after it, and
    every other block is kept as it is."""
    merged: dict[str, list[str]] = {}
    block = None
    for line in existing.splitlines():
        header = _HEADER.fullmatch(line)
        if header:
            block = merged[header.group(1)] = [line]
        elif line and block is not None:
            block.append(line)
    order = list(merged)
    for name in sorted(set(blocks) - set(merged)):
        at = next((i for i, other in enumerate(order) if other > name), len(order))
        order.insert(at, name)
    merged.update(blocks)
    return "\n\n".join("\n".join(merged[name]) for name in order) + "\n"


def pytest_terminal_summary(terminalreporter):
    if not _ROWS:
        return
    blocks = _render()
    for experiment in sorted(blocks):
        terminalreporter.write_line("")
        for line in blocks[experiment]:
            terminalreporter.write_line(line)
    out_path = os.path.join(os.path.dirname(__file__), "series_output.txt")
    try:
        with open(out_path, encoding="utf-8") as handle:
            existing = handle.read()
    except FileNotFoundError:
        existing = ""
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(merged_report(existing, blocks))
    terminalreporter.write_line(f"\nseries merged into {out_path}")
