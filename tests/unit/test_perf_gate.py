"""The perf gate's check logic, driven by synthetic rows — no joins run.

Each test copies a committed baseline profile as the "fresh" run, edits
one row, and asserts the gate reports exactly the breach it introduced.
The committed ``BENCH_*.json`` files themselves are checked against the
suite table: kind, case names, and quick-profile membership.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import os
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _load_perf_gate():
    path = os.path.join(REPO_ROOT, "benchmarks", "perf_gate.py")
    spec = importlib.util.spec_from_file_location("perf_gate", path)
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


perf_gate = _load_perf_gate()
SUITES = perf_gate.SUITES
PROFILES = ("quick", "full")


def _committed(suite: str) -> dict:
    with open(os.path.join(REPO_ROOT, SUITES[suite].file), encoding="utf-8") as handle:
        return json.load(handle)


def _gate(suite: str, edit, profile: str = "full", edit_baseline=None) -> list[str]:
    """Check an edited copy of the committed profile against the original."""
    baseline = _committed(suite)
    fresh = copy.deepcopy(baseline["profiles"][profile])
    edit(fresh["cases"])
    if edit_baseline is not None:
        edit_baseline(baseline["profiles"][profile]["cases"])
    return perf_gate.check(SUITES[suite], fresh, baseline, profile)


def _set(case: str, field: str, value):
    def edit(cases):
        cases[case][field] = value

    return edit


def _drop(case: str, field: str):
    def edit(cases):
        del cases[case][field]

    return edit


def _one_failure(failures: list[str], *fragments: str) -> str:
    assert len(failures) == 1, failures
    for fragment in fragments:
        assert fragment in failures[0], failures[0]
    return failures[0]


_FLAGS = [(s.name, flag) for s in SUITES.values() for flag in s.flags]
_ZEROS = [(s.name, counter) for s in SUITES.values() for counter in s.zeros]
_FLOORS = [
    (s.name, case.name, field, floor)
    for s in SUITES.values()
    for case in s.cases
    for field, floor in case.floors.items()
]
_CAPS = [
    (s.name, case.name, field, cap)
    for s in SUITES.values()
    for case in s.cases
    for field, cap in case.caps.items()
]
_MMAP_CASE = "mmap/optmerge/citation-words/overlap-12"
_SERIAL_CASE = "heap-merge/citation-words/overlap-12"


class TestCommittedBaselines:
    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_kind_matches_table(self, suite):
        assert _committed(suite)["kind"] == SUITES[suite].kind

    @pytest.mark.parametrize("suite", sorted(SUITES))
    @pytest.mark.parametrize("profile", PROFILES)
    def test_every_committed_case_is_in_the_table(self, suite, profile):
        declared = {case.name: case for case in SUITES[suite].cases}
        committed = _committed(suite)["profiles"][profile]["cases"]
        assert set(committed) <= set(declared)
        if profile == "quick":
            assert all(declared[name].quick for name in committed)

    @pytest.mark.parametrize("suite", sorted(SUITES))
    @pytest.mark.parametrize("profile", PROFILES)
    def test_committed_profile_passes_against_itself(self, suite, profile):
        assert _gate(suite, lambda cases: None, profile) == []


class TestGenericChecks:
    def test_pair_count_change_fails(self):
        failures = _gate("serial", _set(_SERIAL_CASE, "pairs", 5765))
        _one_failure(failures, _SERIAL_CASE, "pair count changed 5764 -> 5765")

    def test_work_within_tolerance_passes(self):
        base = _committed("serial")["profiles"]["full"]["cases"][_SERIAL_CASE]["work"]
        limit = int(base * (1 + perf_gate.TOLERANCE))
        assert _gate("serial", _set(_SERIAL_CASE, "work", limit)) == []

    def test_work_over_tolerance_fails(self):
        base = _committed("serial")["profiles"]["full"]["cases"][_SERIAL_CASE]["work"]
        over = int(base * (1 + perf_gate.TOLERANCE)) + 1
        failures = _gate("serial", _set(_SERIAL_CASE, "work", over))
        _one_failure(failures, _SERIAL_CASE, "work regressed")

    def test_case_missing_from_fresh_run_fails(self):
        def drop_case(cases):
            del cases[_SERIAL_CASE]

        failures = _gate("serial", drop_case)
        _one_failure(failures, _SERIAL_CASE, "not run")

    def test_new_case_is_not_work_gated(self):
        def add_case(cases):
            cases["brand-new/case"] = dict(cases[_SERIAL_CASE], work=10**12)

        assert _gate("serial", add_case) == []

    def test_profile_size_mismatch_fails(self):
        baseline = _committed("serial")
        fresh = copy.deepcopy(baseline["profiles"]["quick"])
        failures = perf_gate.check(SUITES["serial"], fresh, baseline, "full")
        _one_failure(failures, "n=2000 != run n=500")

    def test_missing_profile_fails(self):
        baseline = _committed("serial")
        fresh = baseline["profiles"].pop("full")
        failures = perf_gate.check(SUITES["serial"], fresh, baseline, "full")
        _one_failure(failures, "no 'full' profile")


class TestDeclaredChecks:
    @pytest.mark.parametrize("suite,flag", _FLAGS)
    def test_false_identity_flag_fails(self, suite, flag):
        case = SUITES[suite].cases[0].name
        _one_failure(_gate(suite, _set(case, flag, False)), case, f"{flag}=False")

    @pytest.mark.parametrize("suite,flag", _FLAGS)
    def test_absent_identity_flag_fails(self, suite, flag):
        case = SUITES[suite].cases[0].name
        _one_failure(_gate(suite, _drop(case, flag)), case, f"{flag}=missing")

    @pytest.mark.parametrize("suite,counter", _ZEROS)
    def test_nonzero_soundness_counter_fails(self, suite, counter):
        case = SUITES[suite].cases[0].name
        _one_failure(_gate(suite, _set(case, counter, 1)), case, f"{counter}=1")

    @pytest.mark.parametrize("suite,counter", _ZEROS)
    def test_absent_soundness_counter_fails(self, suite, counter):
        case = SUITES[suite].cases[0].name
        _one_failure(_gate(suite, _drop(case, counter)), case, f"{counter}=missing")

    @pytest.mark.parametrize("suite,case,field,floor", _FLOORS)
    def test_floor_breach_fails(self, suite, case, field, floor):
        assert _gate(suite, _set(case, field, floor)) == []
        failures = _gate(suite, _set(case, field, floor - 0.01))
        _one_failure(failures, case, field, "below the pinned floor")

    @pytest.mark.parametrize("suite,case,field,cap", _CAPS)
    def test_cap_breach_fails(self, suite, case, field, cap):
        assert _gate(suite, _set(case, field, cap)) == []
        failures = _gate(suite, _set(case, field, cap + 0.01))
        _one_failure(failures, case, field, "exceeded the pinned cap")

    def test_every_suite_with_identity_contract_declares_it(self):
        assert set(_FLAGS) == {
            ("bitmap", "pairs_match"),
            ("merge", "pairs_match"),
            ("prefix", "pairs_match"),
            ("mmap", "pairs_match"),
            ("mmap", "serve_match"),
            ("serve", "pairs_match"),
            ("serve", "remote_pairs_match"),
        }
        assert _ZEROS == [("approx", "false_positives")]


class TestMmapBounds:
    def test_open_time_over_baseline_relative_ceiling_fails(self):
        # Committed 1.0ms -> limit max(3 * 1.0, 25) = 25ms.
        committed = _set(_MMAP_CASE, "open_ms", 1.0)
        assert _gate("mmap", _set(_MMAP_CASE, "open_ms", 25.0), edit_baseline=committed) == []
        failures = _gate("mmap", _set(_MMAP_CASE, "open_ms", 26.0), edit_baseline=committed)
        _one_failure(failures, _MMAP_CASE, "open_ms=26.0")

    def test_open_time_over_absolute_ceiling_fails(self):
        ceiling = perf_gate._MMAP_OPEN_CEILING_MS
        committed = _set(_MMAP_CASE, "open_ms", ceiling)
        failures = _gate("mmap", _set(_MMAP_CASE, "open_ms", ceiling + 1), edit_baseline=committed)
        _one_failure(failures, _MMAP_CASE, "open_ms")

    def test_open_time_of_new_case_meets_absolute_ceiling(self):
        ceiling = perf_gate._MMAP_OPEN_CEILING_MS

        def add_case(open_ms):
            def edit(cases):
                cases["mmap/new"] = dict(cases[_MMAP_CASE], open_ms=open_ms)

            return edit

        assert _gate("mmap", add_case(ceiling)) == []
        _one_failure(_gate("mmap", add_case(ceiling + 1)), "mmap/new", "open_ms")

    def test_resident_bytes_growth_fails(self):
        base = _committed("mmap")["profiles"]["full"]["cases"][_MMAP_CASE]["resident_bytes"]
        limit = int(base * (1 + perf_gate.TOLERANCE))
        assert _gate("mmap", _set(_MMAP_CASE, "resident_bytes", limit)) == []
        failures = _gate("mmap", _set(_MMAP_CASE, "resident_bytes", limit + 1))
        _one_failure(failures, _MMAP_CASE, "resident_bytes")

    def test_resident_bytes_reaching_file_size_fails(self):
        row = _committed("mmap")["profiles"]["full"]["cases"][_MMAP_CASE]
        failures = _gate("mmap", _set(_MMAP_CASE, "file_bytes", row["resident_bytes"]))
        _one_failure(failures, _MMAP_CASE, "not below file_bytes")


class TestMain:
    def test_rewrite_requires_explicit_suite(self):
        with pytest.raises(SystemExit) as excinfo:
            perf_gate.main([])
        assert excinfo.value.code == 2

    def test_check_lists_failures_of_every_suite(self, monkeypatch, tmp_path, capsys):
        def fake_run(suite, profile):
            fresh = copy.deepcopy(_committed(suite.name)["profiles"][profile])
            for row in fresh["cases"].values():
                row["pairs"] += 1
            return fresh

        monkeypatch.setattr(perf_gate, "run_profile", fake_run)
        argv = ["--quick", "--check", "--output", str(tmp_path)]
        assert perf_gate.main(argv + ["--suite", "serial", "--suite", "approx"]) == 1
        err = capsys.readouterr().err
        assert "serial: heap-merge/citation-words/overlap-12: pair count" in err
        assert "approx: approx/citation-words/jaccard-0.7: pair count" in err
        written = sorted(os.listdir(tmp_path))
        assert written == ["BENCH_approx.fresh.json", "BENCH_serial.fresh.json"]
        with open(tmp_path / "BENCH_serial.fresh.json", encoding="utf-8") as handle:
            fresh = json.load(handle)
        assert set(fresh) == set(_committed("serial"))
        assert fresh["kind"] == "serial-perf-baseline"
