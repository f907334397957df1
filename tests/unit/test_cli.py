"""Unit tests for the command-line interface."""

import os
import signal

import pytest

import repro.cli as cli
from repro.cli import EXIT_INTERRUPTED, EXIT_TIMEOUT, EXIT_USAGE, build_parser, main
from repro.runtime.checkpoint import JoinCheckpointer
from repro.runtime.context import JoinContext
from repro.runtime.faults import CountdownCancellation

SAMPLE = """efficient set joins on similarity predicates
set joins on similarity predicates efficient
gardening content totally different
totally different gardening content
nothing like the others here at all
"""


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "records.txt"
    path.write_text(SAMPLE)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_join_requires_threshold(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["join", "-i", "x.txt"])


class TestJoinCommand:
    def test_jaccard_join(self, sample_file, capsys):
        code = main(["join", "-i", sample_file, "--predicate", "jaccard", "-t", "0.8"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        pairs = {tuple(line.split("\t")[:2]) for line in out}
        assert ("0", "1") in pairs
        assert ("2", "3") in pairs
        assert len(pairs) == 2

    def test_overlap_join_with_algorithm(self, sample_file, capsys):
        code = main(
            ["join", "-i", sample_file, "--predicate", "overlap", "-t", "4",
             "--algorithm", "probe-count-optmerge"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0\t1\t" in out

    def test_3gram_tokenizer(self, sample_file, capsys):
        code = main(
            ["join", "-i", sample_file, "--tokenizer", "3grams",
             "--predicate", "jaccard", "-t", "0.7"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0\t1\t" in out


class TestApproxMode:
    def test_mode_approx_finds_duplicates(self, sample_file, capsys):
        code = main(
            ["join", "-i", sample_file, "--predicate", "jaccard", "-t", "0.8",
             "--mode", "approx", "--target-recall", "0.9", "--seed", "7"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "algorithm=approx" in captured.err
        assert "# approx:" in captured.err
        assert "seed=7" in captured.err

    def test_fixed_seed_matches_across_worker_counts(self, sample_file, capsys):
        outputs = []
        for workers in ("1", "2"):
            code = main(
                ["join", "-i", sample_file, "--predicate", "jaccard",
                 "-t", "0.8", "--mode", "approx", "--seed", "5",
                 "--workers", workers]
            )
            assert code == 0
            outputs.append(sorted(capsys.readouterr().out.strip().splitlines()))
        assert outputs[0] == outputs[1]

    def test_mode_approx_rejects_explicit_algorithm(self, sample_file, capsys):
        code = main(
            ["join", "-i", sample_file, "--predicate", "jaccard", "-t", "0.8",
             "--mode", "approx", "--algorithm", "probe-count"]
        )
        assert code == EXIT_USAGE
        assert "--mode approx" in capsys.readouterr().err

    def test_dedupe_accepts_mode_approx(self, sample_file, capsys):
        code = main(
            ["dedupe", "-i", sample_file, "--predicate", "jaccard", "-t", "0.8",
             "--mode", "approx", "--seed", "3"]
        )
        assert code == 0
        assert "# approx:" in capsys.readouterr().err

    def test_editjoin_accepts_seed(self, tmp_path, capsys):
        path = tmp_path / "names.txt"
        path.write_text("sunita sarawagi\nsunita sarawagy\nalok kirpal\n")
        code = main(
            ["editjoin", "-i", str(path), "-k", "1",
             "--algorithm", "approx", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert "0\t1\t1" in out


class TestDedupeCommand:
    def test_groups_printed(self, sample_file, capsys):
        code = main(["dedupe", "-i", sample_file, "--predicate", "jaccard", "-t", "0.8"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["0\t1", "2\t3"]


class TestEditJoinCommand:
    def test_editjoin(self, tmp_path, capsys):
        path = tmp_path / "names.txt"
        path.write_text("sunita sarawagi\nsunita sarawagy\nalok kirpal\n")
        code = main(["editjoin", "-i", str(path), "-k", "1"])
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["0\t1\t1"]


class TestStatsCommand:
    def test_stats(self, sample_file, capsys):
        code = main(["stats", "-i", sample_file])
        assert code == 0
        out = capsys.readouterr().out
        assert "records\t5" in out
        assert "avg_set_size" in out


class TestServeCommand:
    def test_serve_answers_queries_from_file(self, sample_file, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text(
            "efficient set joins on similarity\n"
            "\n"
            "no overlap with anything here whatsoever\n"
        )
        code = main(
            ["serve", "-i", sample_file, "--predicate", "jaccard", "-t", "0.7",
             "--queries", str(queries)]
        )
        assert code == 0
        captured = capsys.readouterr()
        rows = [line.split("\t") for line in captured.out.strip().splitlines()]
        # Query 0 matches records 0 and 1; the blank line is skipped and
        # the no-overlap query (qid 1) matches nothing.
        assert [(qid, rid) for qid, rid, _ in rows] == [("0", "0"), ("0", "1")]
        assert "# serve:" in captured.err
        assert "breaker=closed" in captured.err

    def test_serve_health_reports_unknown_query_tokens(
        self, sample_file, tmp_path, capsys
    ):
        queries = tmp_path / "queries.txt"
        queries.write_text("similarity chimera xylophone\n")
        code = main(
            ["serve", "-i", sample_file, "-t", "0.9", "--queries", str(queries)]
        )
        assert code == 0
        assert "unknown_query_tokens=2" in capsys.readouterr().err

    def test_serve_rejects_double_stdin(self, capsys):
        code = main(["serve", "-i", "-", "-t", "0.5", "--queries", "-"])
        assert code == EXIT_USAGE
        assert "stdin" in capsys.readouterr().err

    def test_serve_rejects_bad_worker_count(self, sample_file, capsys):
        code = main(
            ["serve", "-i", sample_file, "-t", "0.5", "--workers", "0"]
        )
        assert code == EXIT_USAGE
        assert "--workers" in capsys.readouterr().err


class TestServeShardedCommand:
    def _serve(self, sample_file, tmp_path, capsys, *extra):
        queries = tmp_path / "queries.txt"
        queries.write_text(
            "efficient set joins on similarity\n"
            "no overlap with anything here whatsoever\n"
        )
        code = main(
            ["serve", "-i", sample_file, "--predicate", "jaccard", "-t", "0.7",
             "--queries", str(queries), *extra]
        )
        return code, capsys.readouterr()

    def test_sharded_rows_match_single_with_completeness_column(
        self, sample_file, tmp_path, capsys
    ):
        _, single = self._serve(sample_file, tmp_path, capsys)
        code, sharded = self._serve(
            sample_file, tmp_path, capsys, "--shards", "3"
        )
        assert code == 0
        single_rows = [
            line.split("\t") for line in single.out.strip().splitlines()
        ]
        sharded_rows = [
            line.split("\t") for line in sharded.out.strip().splitlines()
        ]
        # Identical answers, plus the completeness column; the zero-match
        # query (qid 1) gets a status row instead of vanishing from the
        # TSV stream.
        match_rows = [row for row in sharded_rows if row[1] != "-"]
        assert [row[:3] for row in match_rows] == single_rows
        assert all(row[3] == "complete" for row in sharded_rows)
        assert ["1", "-", "-", "complete"] in sharded_rows
        assert "shards=3" in sharded.err
        assert "(0 partial)" in sharded.err
        assert "breakers=closed,closed,closed" in sharded.err

    def test_sharded_flags_are_validated(self, sample_file, capsys):
        for extra, message in [
            (["--shards", "0"], "--shards"),
            (["--shards", "2", "--shard-workers", "0"], "--shard-workers"),
            (["--shards", "2", "--hedge-delay", "0"], "--hedge-delay"),
            (["--require-complete"], "--shards"),
            (["--hedge-delay", "0.1"], "--shards"),
        ]:
            code = main(["serve", "-i", sample_file, "-t", "0.5", *extra])
            assert code == EXIT_USAGE
            assert message in capsys.readouterr().err
        # No process-pool flag: multi-process serving is shard-serve.
        with pytest.raises(SystemExit) as err:
            main(["serve", "-i", sample_file, "-t", "0.5", "--process-pool"])
        assert err.value.code == EXIT_USAGE
        assert "--process-pool" in capsys.readouterr().err

    def test_sharded_with_hedging_and_require_complete(
        self, sample_file, tmp_path, capsys
    ):
        code, captured = self._serve(
            sample_file, tmp_path, capsys,
            "--shards", "2", "--hedge-delay", "0.05", "--require-complete",
            "--query-cache", "8",
        )
        assert code == 0
        assert "hedges" in captured.err

    def test_health_line_sums_shard_cache_hits(self, sample_file, tmp_path, capsys):
        queries = tmp_path / "queries.txt"
        queries.write_text("efficient set joins on similarity\n" * 3)

        def health(*extra):
            code = main(
                ["serve", "-i", sample_file, "--predicate", "jaccard", "-t", "0.7",
                 "--queries", str(queries), "--workers", "1", *extra]
            )
            assert code == 0
            return capsys.readouterr().err

        # One worker asks the three lines in turn: each shard misses the
        # first and hits the two repeats.
        assert "cache 4/6 hits," in health("--shards", "2", "--query-cache", "8")
        assert "cache 2/3 hits," in health("--query-cache", "8")
        assert "cache" not in health("--shards", "2")

    def test_sharded_cosine_matches_single_index(self, tmp_path, capsys):
        """Cosine's IDF weights are corpus statistics: serving must pin
        them to the *global* corpus. A bare predicate binds the corpus
        its index holds at first insert — one record incrementally, a
        sub-corpus per shard — so without pinned stats the weights are
        wrong and sharded/single answers can silently diverge. The
        corpus here is deliberately frequency-skewed ('alpha' is in
        every record, the rest are rare) so uniform or per-shard IDF
        produces different 4-decimal similarities than global IDF."""
        corpus = tmp_path / "records.txt"
        corpus.write_text(
            "alpha beta gamma delta\n"
            "alpha beta gamma epsilon\n"
            "alpha zeta eta theta\n"
            "alpha iota kappa lambda\n"
            "alpha mu nu xi\n"
        )
        queries = tmp_path / "queries.txt"
        queries.write_text("alpha beta gamma\n")

        def _rows(*extra):
            code = main(
                ["serve", "-i", str(corpus), "--predicate", "cosine",
                 "-t", "0.3", "--queries", str(queries), *extra]
            )
            assert code == 0
            return [
                line.split("\t")
                for line in capsys.readouterr().out.strip().splitlines()
            ]

        single_rows = _rows()
        assert [row[:2] for row in single_rows] == [["0", "0"], ["0", "1"]]
        # The similarities must be the *global*-IDF cosine (weights from
        # the 5-record corpus), computed independently here: the probe
        # {alpha, beta, gamma} against {alpha, beta, gamma, delta-like}.
        from math import log, sqrt

        a, bg = log(1 + 5 / 5), log(1 + 5 / 2)  # idf: alpha / beta, gamma
        rare = log(1 + 5 / 1)  # idf: delta, epsilon
        want = (a * a + 2 * bg * bg) / sqrt(
            (a * a + 2 * bg * bg) * (a * a + 2 * bg * bg + rare * rare)
        )
        assert all(row[2] == f"{want:.4f}" for row in single_rows)
        for shards in ("2", "3"):
            sharded_rows = _rows("--shards", shards)
            match_rows = [row for row in sharded_rows if row[1] != "-"]
            # rids AND 4-decimal similarities identical, every shard count.
            assert [row[:3] for row in match_rows] == single_rows
            assert all(row[3] == "complete" for row in sharded_rows)


class TestEmitQueryResult:
    """The TSV contract for sharded answers, pinned at the emit seam
    (a genuinely partial answer needs fault injection, so the CLI-level
    tests only ever see complete ones)."""

    @staticmethod
    def _future(value):
        from concurrent.futures import Future

        future = Future()
        future.set_result(value)
        return future

    @staticmethod
    def _sharded(matches=(), failed=()):
        from repro.serving import ShardedResult

        ok = tuple(sid for sid in (0, 1) if sid not in failed)
        return ShardedResult(
            matches=tuple(matches),
            shards_ok=ok,
            shards_failed=tuple(failed),
            partial=bool(failed),
        )

    def test_empty_partial_answer_is_visible_in_tsv(self, capsys):
        # Zero surviving matches must still be distinguishable from an
        # exact empty answer *in the TSV stream*, not just on stderr.
        ok = cli._emit_query_result(7, self._future(self._sharded(failed=(1,))), 1.0)
        assert ok is True
        captured = capsys.readouterr()
        assert captured.out == "7\t-\t-\tpartial\n"
        assert "lost shards [1]" in captured.err

    def test_empty_complete_answer_emits_status_row(self, capsys):
        assert cli._emit_query_result(7, self._future(self._sharded()), 1.0)
        captured = capsys.readouterr()
        assert captured.out == "7\t-\t-\tcomplete\n"
        assert captured.err == ""

    def test_partial_answer_with_matches_has_no_status_row(self, capsys):
        from repro.core.results import MatchPair

        result = self._sharded(matches=[MatchPair(4, 9, 0.5)], failed=(1,))
        assert cli._emit_query_result(2, self._future(result), 1.0)
        captured = capsys.readouterr()
        assert captured.out == "2\t4\t0.5000\tpartial\n"

    def test_empty_single_index_answer_emits_nothing(self, capsys):
        # The unsharded three-column format is unchanged.
        assert cli._emit_query_result(7, self._future([]), 1.0)
        assert capsys.readouterr().out == ""


def _one_error_line(capsys) -> str:
    """Assert stderr is exactly one repro-prefixed line (no traceback)."""
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("repro:")
    return err[0]


class TestOperationalErrors:
    def test_missing_input_exits_2_with_one_line(self, tmp_path, capsys):
        code = main(["join", "-i", str(tmp_path / "nope.txt"), "-t", "0.5"])
        assert code == EXIT_USAGE
        assert "cannot read" in _one_error_line(capsys)

    def test_empty_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "blank.txt"
        path.write_text("\n   \n\n")
        code = main(["join", "-i", str(path), "-t", "0.5"])
        assert code == EXIT_USAGE
        assert "empty input" in _one_error_line(capsys)

    def test_unknown_algorithm_exits_2(self, sample_file, capsys):
        code = main(
            ["join", "-i", sample_file, "-t", "0.5", "--algorithm", "quantum"]
        )
        assert code == EXIT_USAGE
        assert "quantum" in _one_error_line(capsys)

    def test_non_numeric_threshold_is_an_argparse_error(self, sample_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(["join", "-i", sample_file, "-t", "quite-similar"])
        assert err.value.code == EXIT_USAGE

    def test_out_of_range_threshold_exits_2(self, sample_file, capsys):
        code = main(
            ["join", "-i", sample_file, "--predicate", "jaccard", "-t", "5.0"]
        )
        assert code == EXIT_USAGE
        assert "threshold" in _one_error_line(capsys)

    def test_nonpositive_deadline_exits_2(self, sample_file, capsys):
        code = main(["join", "-i", sample_file, "-t", "0.5", "--deadline", "0"])
        assert code == EXIT_USAGE
        _one_error_line(capsys)

    def test_cluster_mem_needs_memory_budget(self, sample_file, capsys):
        code = main(
            ["join", "-i", sample_file, "-t", "0.5", "--algorithm", "cluster-mem"]
        )
        assert code == EXIT_USAGE
        assert "--memory-budget" in _one_error_line(capsys)


class TestHardenedRuntimeFlags:
    def test_expired_deadline_exits_124_with_resume_hint(
        self, sample_file, tmp_path, capsys
    ):
        code = main(
            ["join", "-i", sample_file, "-t", "0.5", "--deadline", "1e-9",
             "--checkpoint", str(tmp_path / "ckpt")]
        )
        assert code == EXIT_TIMEOUT
        assert "resume" in _one_error_line(capsys)

    def test_interrupted_run_resumes_to_identical_pairs(
        self, sample_file, tmp_path, capsys, monkeypatch
    ):
        """The CLI acceptance path: killed run exits 130 with progress
        saved; rerunning the same command completes with the exact pair
        set of an uninterrupted run."""
        args = [
            "join", "-i", sample_file, "--predicate", "jaccard", "-t", "0.8",
            "--checkpoint", str(tmp_path / "ckpt"), "--checkpoint-interval", "2",
        ]
        assert main(list(args)) == 0
        truth = capsys.readouterr().out
        assert main(list(args)) == 0  # checkpoint was cleared; reruns fine
        capsys.readouterr()

        # Simulate Ctrl-C three records in: the CLI's own token, wired
        # to SIGINT, is replaced by a countdown that trips mid-scan.
        monkeypatch.setattr(
            cli, "CancellationToken", lambda: CountdownCancellation(after_checks=3)
        )
        code = main(list(args))
        assert code == EXIT_INTERRUPTED
        captured = capsys.readouterr()
        assert "rerun the same command to resume" in captured.err
        monkeypatch.undo()

        assert main(list(args)) == 0
        assert capsys.readouterr().out == truth

    def test_memory_budget_degradation_is_reported(self, sample_file, capsys):
        code = main(
            ["join", "-i", sample_file, "-t", "0.5", "--memory-budget", "3"]
        )
        assert code == 0
        assert "degraded" in capsys.readouterr().err

    def test_double_sigint_during_flush_exits_130_checkpoint_intact(
        self, sample_file, tmp_path, capsys, monkeypatch
    ):
        """Regression: a second Ctrl-C landing while the interrupt flush
        is writing the checkpoint must neither corrupt the checkpoint
        directory nor change the exit status.

        Both SIGINTs are real signals (``os.kill``), delivered at exact
        deterministic points: the first at the third progress tick
        (operator interrupts mid-scan), the second from inside the
        checkpoint write it triggers (operator hammering Ctrl-C during
        the flush). The ``_sigint_cancels`` handler must absorb both —
        default behaviour would raise KeyboardInterrupt mid-write and
        tear the flush.
        """
        ckpt = tmp_path / "ckpt"
        args = [
            "join", "-i", sample_file, "--predicate", "jaccard", "-t", "0.8",
            "--checkpoint", str(ckpt), "--checkpoint-interval", "1000",
        ]
        assert main(list(args)) == 0
        truth = capsys.readouterr().out

        real_tick = JoinContext.tick
        ticks = {"n": 0}

        def tick_firing_sigint(self, counters, check_memory=True):
            ticks["n"] += 1
            if ticks["n"] == 3:
                os.kill(os.getpid(), signal.SIGINT)
            return real_tick(self, counters, check_memory=check_memory)

        real_write = JoinCheckpointer.write
        writes = {"n": 0}

        def write_under_sigint(self, *wargs, **wkwargs):
            writes["n"] += 1
            os.kill(os.getpid(), signal.SIGINT)
            return real_write(self, *wargs, **wkwargs)

        monkeypatch.setattr(JoinContext, "tick", tick_firing_sigint)
        monkeypatch.setattr(JoinCheckpointer, "write", write_under_sigint)
        code = main(list(args))
        assert code == EXIT_INTERRUPTED
        assert "rerun the same command to resume" in capsys.readouterr().err
        # Interval 1000 >> 5 records: the only write was the interrupt
        # flush, and the second SIGINT did not abort it.
        assert writes["n"] == 1
        monkeypatch.undo()

        # No torn temp files, and the checkpoint is genuinely loadable:
        # the resumed run completes with the uninterrupted pair set.
        assert [p.name for p in ckpt.iterdir() if p.name.endswith(".tmp")] == []
        assert main(list(args)) == 0
        assert capsys.readouterr().out == truth


class TestMergeBackendFlag:
    def test_backend_choices_rejected(self, sample_file, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["join", "-i", sample_file, "-t", "0.8",
                 "--merge-backend", "quantum"]
            )

    @pytest.mark.parametrize("backend", ["auto", "heap", "accumulator"])
    def test_join_output_identical_across_backends(
        self, sample_file, capsys, backend
    ):
        code = main(
            ["join", "-i", sample_file, "--predicate", "jaccard", "-t", "0.8",
             "--merge-backend", backend]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        pairs = {tuple(line.split("\t")[:2]) for line in out}
        assert pairs == {("0", "1"), ("2", "3")}

    def test_editjoin_accepts_backend(self, sample_file, capsys):
        code = main(
            ["editjoin", "-i", sample_file, "-k", "2",
             "--merge-backend", "accumulator"]
        )
        assert code == 0


class TestIndexBackendFlag:
    def test_backend_choices_rejected(self, sample_file):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["join", "-i", sample_file, "-t", "0.8",
                 "--index-backend", "cloud"]
            )

    def test_mmap_join_identical_to_memory(self, sample_file, capsys):
        base = ["join", "-i", sample_file, "--predicate", "jaccard",
                "-t", "0.8", "--algorithm", "probe-count-optmerge"]
        assert main(base) == 0
        expected = capsys.readouterr().out
        assert main(base + ["--index-backend", "mmap"]) == 0
        assert capsys.readouterr().out == expected

    def test_index_path_keeps_the_file(self, sample_file, tmp_path, capsys):
        path = str(tmp_path / "cli.rpmx")
        code = main(
            ["join", "-i", sample_file, "--predicate", "jaccard", "-t", "0.8",
             "--algorithm", "probe-count-optmerge",
             "--index-backend", "mmap", "--index-path", path]
        )
        assert code == 0
        assert os.path.exists(path)

    def test_unsupported_algorithm_is_usage_error(self, sample_file, capsys):
        code = main(
            ["join", "-i", sample_file, "--predicate", "jaccard", "-t", "0.8",
             "--algorithm", "probe-count-online", "--index-backend", "mmap"]
        )
        assert code == EXIT_USAGE
        assert "does not support index_backend" in capsys.readouterr().err

    def test_unsupported_algorithm_with_workers_is_usage_error(
        self, sample_file, capsys
    ):
        code = main(
            ["join", "-i", sample_file, "--predicate", "jaccard", "-t", "0.8",
             "--algorithm", "probe-cluster", "--index-backend", "mmap",
             "--workers", "2"]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "does not support index_backend" in err
        assert "crashed" not in err

    def test_index_path_rejected_with_workers(self, sample_file, tmp_path, capsys):
        code = main(
            ["join", "-i", sample_file, "--predicate", "jaccard", "-t", "0.8",
             "--algorithm", "probe-count-optmerge", "--index-backend", "mmap",
             "--index-path", str(tmp_path / "x.rpmx"), "--workers", "2"]
        )
        assert code == EXIT_USAGE
        assert "--workers" in capsys.readouterr().err

    def test_parallel_mmap_identical_to_serial(self, sample_file, capsys):
        base = ["join", "-i", sample_file, "--predicate", "jaccard",
                "-t", "0.8", "--algorithm", "probe-count-optmerge"]
        assert main(base) == 0
        expected = capsys.readouterr().out
        assert main(base + ["--index-backend", "mmap", "--workers", "2"]) == 0
        assert capsys.readouterr().out == expected


class TestUnsupportedPredicate:
    """An algorithm x predicate the algorithm does not declare is a
    one-line usage error, serial or sharded — never a traceback."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "algorithm", ["prefix-filter", "positional-filter", "word-groups"]
    )
    def test_cosine_is_usage_error(self, sample_file, capsys, algorithm, workers):
        code = main(
            ["join", "-i", sample_file, "--predicate", "cosine", "-t", "0.5",
             "--algorithm", algorithm, "--workers", workers]
        )
        assert code == EXIT_USAGE
        line = _one_error_line(capsys)
        assert algorithm in line
        assert "crashed" not in line
