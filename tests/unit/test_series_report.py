"""The benchmark series report keeps the experiments a session did not run.

``benchmarks/conftest.py`` merges each session's blocks into
``benchmarks/series_output.txt``; running one bench file must replace
only that file's experiments there.
"""

from __future__ import annotations

import importlib.util
import os
import shutil

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCHMARKS = os.path.join(REPO_ROOT, "benchmarks")


def _load_conftest(directory: str):
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", os.path.join(directory, "conftest.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Reporter:
    def __init__(self):
        self.lines = []

    def write_line(self, line: str) -> None:
        self.lines.append(line)


def _headers(text: str) -> list[str]:
    return [line for line in text.splitlines() if line.startswith("=== ")]


def _committed() -> str:
    with open(os.path.join(BENCHMARKS, "series_output.txt"), encoding="utf-8") as handle:
        return handle.read()


def test_merging_nothing_keeps_the_committed_report_byte_for_byte():
    conftest = _load_conftest(BENCHMARKS)
    committed = _committed()
    assert conftest.merged_report(committed, {}) == committed


def test_a_session_replaces_only_its_own_experiments(tmp_path):
    shutil.copy(os.path.join(BENCHMARKS, "conftest.py"), tmp_path)
    shutil.copy(os.path.join(BENCHMARKS, "series_output.txt"), tmp_path)
    committed = _committed()
    before = _headers(committed)
    replaced = "ablation: record order"
    assert f"=== {replaced} ===" in before
    conftest = _load_conftest(str(tmp_path))
    conftest._ROWS[replaced].append(("fresh", {"seconds": 1.5, "pairs": 7}))
    conftest._ROWS["ablation: zz new"].append(("only", {"work": 3}))
    reporter = _Reporter()
    conftest.pytest_terminal_summary(reporter)

    with open(tmp_path / "series_output.txt", encoding="utf-8") as handle:
        merged = handle.read()
    # The new experiment sorts before the first "bandjoin" block.
    at = next(i for i, header in enumerate(before) if "bandjoin" in header)
    assert _headers(merged) == before[:at] + ["=== ablation: zz new ==="] + before[at:]
    assert f"=== {replaced} ===\n  {'fresh':34s} seconds=1.500  pairs=7\n" in merged
    assert f"=== ablation: zz new ===\n  {'only':34s} work=3\n" in merged
    # Every other experiment's block is exactly as committed.
    for block in committed.split("\n\n"):
        if not block.startswith(f"=== {replaced} ==="):
            assert block.rstrip("\n") in merged
    assert f"=== {replaced} ===" in reporter.lines
