"""`repro scenario run|compare|list` end to end, on a tiny corpus."""

import json

from repro.cli import main


def _run(tmp_path, *argv):
    cache = str(tmp_path / "cache")
    return main([*argv, "--users", "300", "--seed", "5", "--cache-dir", cache])


class TestScenarioList:
    def test_list_prints_every_name(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert "vaccination-ring" in out
        assert "forecast-darwin" in out


class TestScenarioRun:
    def test_named_run_renders_and_caches(self, tmp_path, capsys):
        assert _run(tmp_path, "scenario", "run", "lockdown-hard") == 0
        first = capsys.readouterr()
        assert "lockdown-hard" in first.out
        assert "3 executed" in first.err

        assert _run(tmp_path, "scenario", "run", "lockdown-hard") == 0
        second = capsys.readouterr()
        assert "0 executed" in second.err
        assert "3 cache hits" in second.err
        # The cached result renders identically.
        assert second.out == first.out

    def test_config_file_run_with_json_output(self, tmp_path, capsys):
        config_path = tmp_path / "scenario.json"
        config_path.write_text(
            json.dumps(
                {
                    "name": "from-file",
                    "epidemic": {"t_max_days": 30.0},
                    "interventions": [{"kind": "travel_scaling", "factor": 0.5}],
                }
            ),
            encoding="utf-8",
        )
        json_out = tmp_path / "result.json"
        code = _run(
            tmp_path,
            "scenario", "run", "--config", str(config_path), "--json", str(json_out),
        )
        assert code == 0
        payload = json.loads(json_out.read_text(encoding="utf-8"))
        assert payload["name"] == "from-file"
        assert "attack_rate" in payload["outputs"]

    def test_unknown_name_is_a_clean_cli_error(self, tmp_path, capsys):
        assert _run(tmp_path, "scenario", "run", "no-such-scenario") == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_requires_exactly_one_scenario(self, tmp_path, capsys):
        assert _run(tmp_path, "scenario", "run") == 2
        assert "exactly one scenario" in capsys.readouterr().err

    def test_missing_config_file_is_a_clean_cli_error(self, tmp_path, capsys):
        code = _run(tmp_path, "scenario", "run", "--config", str(tmp_path / "nope.json"))
        assert code == 2
        assert "not found" in capsys.readouterr().err


class TestScenarioCompare:
    def test_compare_emits_delta_table_and_json(self, tmp_path, capsys):
        json_out = tmp_path / "compare.json"
        code = _run(
            tmp_path,
            "scenario", "compare", "baseline", "lockdown-hard", "travel-shutdown",
            "--jobs", "2", "--json", str(json_out),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline" in out

        payload = json.loads(json_out.read_text(encoding="utf-8"))
        assert payload["baseline"] == "baseline"
        assert {entry["name"] for entry in payload["scenarios"]} == {
            "baseline", "lockdown-hard", "travel-shutdown",
        }
        assert set(payload["deltas_vs_baseline"]) == {"lockdown-hard", "travel-shutdown"}

    def test_compare_rejects_single_member(self, tmp_path, capsys):
        assert _run(tmp_path, "scenario", "compare", "baseline") == 2
        assert "at least two" in capsys.readouterr().err
