"""Tests for the ``repro pipeline`` CLI and ``experiment all`` delegation."""

import json

from repro.cli import main

ARGS = ["--users", "500", "--seed", "9"]


def _cache(tmp_path) -> list[str]:
    return ["--cache-dir", str(tmp_path / "cache")]


class TestPipelineRun:
    def test_run_prints_suite_and_writes_manifest(self, tmp_path, capsys):
        code = main(["pipeline", "run", *ARGS, *_cache(tmp_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "Table I" in captured.out
        assert "Table II" in captured.out
        assert "7 executed, 0 cache hits" in captured.err
        manifests = list((tmp_path / "cache" / "runs").rglob("manifest.json"))
        assert len(manifests) == 1
        payload = json.loads(manifests[0].read_text())
        assert payload["executed"] == 7

    def test_warm_run_executes_nothing(self, tmp_path, capsys):
        main(["pipeline", "run", *ARGS, *_cache(tmp_path)])
        capsys.readouterr()
        code = main(["pipeline", "run", *ARGS, *_cache(tmp_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert "0 executed, 7 cache hits" in captured.err
        assert "Table II" in captured.out

    def test_jobs_flag(self, tmp_path, capsys):
        code = main(["pipeline", "run", *ARGS, "--jobs", "2", *_cache(tmp_path)])
        assert code == 0
        assert "(jobs=2)" in capsys.readouterr().err

    def test_targets_render_only_requested(self, tmp_path, capsys):
        code = main(
            ["pipeline", "run", *ARGS, "--targets", "table1", *_cache(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Table II" not in out

    def test_failing_task_names_task_and_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not,a,corpus\n")
        code = main(
            ["pipeline", "run", "--corpus", str(bad), *_cache(tmp_path)]
        )
        assert code == 1
        assert "failed at task 'corpus'" in capsys.readouterr().err


class TestPipelineStatus:
    def test_status_before_and_after(self, tmp_path, capsys):
        assert main(["pipeline", "status", *ARGS, *_cache(tmp_path)]) == 0
        before = capsys.readouterr().out
        assert "0/7 tasks cached" in before
        assert "missing" in before and "stale" in before
        main(["pipeline", "run", *ARGS, *_cache(tmp_path)])
        capsys.readouterr()
        assert main(["pipeline", "status", *ARGS, *_cache(tmp_path)]) == 0
        after = capsys.readouterr().out
        assert "7/7 tasks cached" in after

    def test_status_distinguishes_configs(self, tmp_path, capsys):
        main(["pipeline", "run", *ARGS, *_cache(tmp_path)])
        capsys.readouterr()
        main(["pipeline", "status", "--users", "501", "--seed", "9", *_cache(tmp_path)])
        assert "0/7 tasks cached" in capsys.readouterr().out


class TestPipelineClean:
    def test_clean_empties_cache(self, tmp_path, capsys):
        main(["pipeline", "run", *ARGS, *_cache(tmp_path)])
        capsys.readouterr()
        assert main(["pipeline", "clean", *_cache(tmp_path)]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["pipeline", "status", *ARGS, *_cache(tmp_path)]) == 0
        assert "0/7 tasks cached" in capsys.readouterr().out


class TestExperimentAllDelegation:
    def test_experiment_all_uses_cache(self, tmp_path, capsys):
        code = main(["experiment", "all", *ARGS, *_cache(tmp_path)])
        assert code == 0
        first = capsys.readouterr()
        assert "Table II" in first.out
        assert "7 executed" in first.err
        code = main(["experiment", "all", *ARGS, *_cache(tmp_path)])
        assert code == 0
        second = capsys.readouterr()
        assert "0 executed, 7 cache hits" in second.err
        assert second.out == first.out

    def test_experiment_all_no_cache_path(self, tmp_path, capsys):
        code = main(["experiment", "all", *ARGS, "--no-cache"])
        assert code == 0
        assert "Table II" in capsys.readouterr().out
