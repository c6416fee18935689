"""Tests for the command-line interface (run directories and exit codes)."""

import json

import pytest

from isacdeploy.cli import main
from isacdeploy.config import deployment_to_dict
from isacdeploy.geometry import Scenario, midpoint_baseline

DESK_CONFIG = {
    "scenario": {"region_radius": 4.0, "snapshot_count": 32},
    "ga": {
        "population_size": 8,
        "elite_count": 2,
        "max_generations": 4,
        "tournament_size": 2,
    },
    "experiment": {"seed": 7, "random_deployment_count": 6, "trials_per_point": 2},
}


@pytest.fixture(autouse=True)
def clean_thread_env(monkeypatch):
    monkeypatch.delenv("ISAC_DEPLOY_THREADS", raising=False)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(DESK_CONFIG))
    return path


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


class TestArgumentParsing:
    def test_a_command_is_required(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_commands_are_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["anneal"])
        assert excinfo.value.code == 2


class TestOptimizeCommand:
    def test_writes_the_expected_artifacts(self, tmp_path, config_path):
        out = tmp_path / "run"
        assert main(["optimize", "--config", str(config_path), "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == {
            "config-echo.json",
            "convergence.csv",
            "deployment-optimized.json",
            "summary.json",
        }

    def test_convergence_csv_matches_the_summary(self, tmp_path, config_path):
        out = tmp_path / "run"
        main(["optimize", "--config", str(config_path), "--out", str(out)])
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "generation,best_fitness"
        assert len(lines) == 1 + 5
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2", "3", "4"]
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a for a, b in zip(values, values[1:]))
        summary = read_summary(out)
        assert values[-1] == summary["best_fitness"]
        assert summary["checks"] == {
            "trace_non_increasing": True,
            "trace_length_matches_generations": True,
            "best_deployment_feasible": True,
        }
        assert summary["wall_time_seconds"] >= 0.0

    def test_config_echo_holds_the_effective_config(self, tmp_path, config_path):
        out = tmp_path / "run"
        main(["optimize", "--config", str(config_path), "--out", str(out)])
        echo = json.loads((out / "config-echo.json").read_text())
        assert echo["experiment"]["kind"] == "optimize"
        assert echo["experiment"]["seed"] == 7
        assert echo["scenario"]["region_radius"] == 4.0
        assert echo["ga"]["population_size"] == 8
        assert echo["scenario"]["element_spacing"] > 0.0

    def test_reruns_are_byte_identical_except_wall_time(self, tmp_path, config_path):
        first = tmp_path / "first"
        second = tmp_path / "second"
        main(["optimize", "--config", str(config_path), "--out", str(first)])
        main(["optimize", "--config", str(config_path), "--out", str(second)])
        for name in ("config-echo.json", "convergence.csv", "deployment-optimized.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        summaries = [read_summary(first), read_summary(second)]
        for summary in summaries:
            assert summary.pop("wall_time_seconds") >= 0.0
        assert summaries[0] == summaries[1]

    def test_seed_override_is_echoed_and_changes_results(self, tmp_path, config_path):
        base = tmp_path / "base"
        reseeded = tmp_path / "reseeded"
        main(["optimize", "--config", str(config_path), "--out", str(base)])
        main(["optimize", "--config", str(config_path), "--out", str(reseeded), "--seed", "11"])
        echo = json.loads((reseeded / "config-echo.json").read_text())
        assert echo["experiment"]["seed"] == 11
        assert (base / "convergence.csv").read_bytes() != (reseeded / "convergence.csv").read_bytes()

    def test_default_out_dir_names_the_command_and_seed(self, tmp_path, config_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["optimize", "--config", str(config_path)]) == 0
        assert (tmp_path / "runs" / "optimize-seed7" / "summary.json").exists()
        assert main(["optimize", "--config", str(config_path), "--seed", "9"]) == 0
        assert (tmp_path / "runs" / "optimize-seed9" / "summary.json").exists()

    def test_thread_count_does_not_change_the_results(self, tmp_path, config_path, monkeypatch):
        serial = tmp_path / "serial"
        flagged = tmp_path / "flagged"
        via_env = tmp_path / "via-env"
        main(["optimize", "--config", str(config_path), "--out", str(serial)])
        main(["optimize", "--config", str(config_path), "--out", str(flagged), "--threads", "2"])
        monkeypatch.setenv("ISAC_DEPLOY_THREADS", "3")
        main(["optimize", "--config", str(config_path), "--out", str(via_env)])
        reference = (serial / "convergence.csv").read_bytes()
        assert (flagged / "convergence.csv").read_bytes() == reference
        assert (via_env / "convergence.csv").read_bytes() == reference

class TestMontecarloCommand:
    def test_scatter_rows_and_exit_zero(self, tmp_path, config_path):
        out = tmp_path / "run"
        assert main(["montecarlo", "--config", str(config_path), "--out", str(out)]) == 0
        lines = (out / "scatter.csv").read_text().splitlines()
        assert lines[0] == "deployment_id,max_rho,max_rmse"
        ids = [line.split(",")[0] for line in lines[1:]]
        assert ids == ["optimized", "midpoint"] + [f"random-{k}" for k in range(6)]
        assert not (out / "failure-report.json").exists()

    def test_music_off_writes_nan_cells(self, tmp_path):
        config = json.loads(json.dumps(DESK_CONFIG))
        config["experiment"]["music"] = False
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run"
        assert main(["montecarlo", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "scatter.csv").read_text().splitlines()
        assert all(line.endswith(",nan") for line in lines[1:])

    def test_failed_checks_exit_one_with_a_report(self, tmp_path, capsys):
        config = {
            "scenario": {"region_radius": 4.0, "snapshot_count": 32},
            "ga": {"population_size": 2, "elite_count": 0, "max_generations": 0},
            "experiment": {"seed": 1, "random_deployment_count": 6, "music": False},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run"
        assert main(["montecarlo", "--config", str(path), "--out", str(out)]) == 1
        report = json.loads((out / "failure-report.json").read_text())
        assert report["failed_checks"] == ["optimized_has_lowest_max_rho"]
        assert report["checks"]["optimized_has_lowest_max_rho"] is False
        summary = read_summary(out)
        assert summary["checks"]["optimized_has_lowest_max_rho"] is False
        assert (out / "scatter.csv").exists()
        assert "check failed: optimized_has_lowest_max_rho" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_round_trip_matches_the_optimizer(self, tmp_path, config_path):
        optimize_out = tmp_path / "optimize"
        main(["optimize", "--config", str(config_path), "--out", str(optimize_out)])
        best_fitness = read_summary(optimize_out)["best_fitness"]
        evaluate_out = tmp_path / "evaluate"
        code = main(
            [
                "evaluate",
                "--config",
                str(config_path),
                "--out",
                str(evaluate_out),
                str(optimize_out / "deployment-optimized.json"),
            ]
        )
        assert code == 0
        lines = (evaluate_out / "evaluation.csv").read_text().splitlines()
        assert lines[0] == "max_rho,worst_pair_i,worst_pair_j,max_rmse"
        cells = lines[1].split(",")
        assert float(cells[0]) == best_fitness
        assert read_summary(evaluate_out)["max_rho"] == best_fitness
        assert read_summary(evaluate_out)["checks"] == {}

    def test_infeasible_deployment_exits_two(self, tmp_path, config_path, capsys):
        path = tmp_path / "deployment.json"
        path.write_text(json.dumps({"poses": [{"x": 10.0, "y": 10.0, "theta": 0.0}]}))
        assert main(["evaluate", "--config", str(config_path), str(path)]) == 2
        assert "infeasible" in capsys.readouterr().err

    def test_malformed_deployment_exits_two(self, tmp_path, config_path, capsys):
        path = tmp_path / "deployment.json"
        path.write_text(json.dumps({"poses": [{"x": 1.0, "y": 2.0}]}))
        assert main(["evaluate", "--config", str(config_path), str(path)]) == 2
        assert "poses[0]" in capsys.readouterr().err


class TestBadInputs:
    def test_json_syntax_errors_exit_two_with_location(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"scenario": }')
        assert main(["optimize", "--config", str(path)]) == 2
        assert "config.json:1:14" in capsys.readouterr().err

    def test_unknown_config_keys_exit_two(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": {"snr": 10}}))
        assert main(["optimize", "--config", str(path)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_kind_mismatch_exits_two(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiment": {"kind": "optimize"}}))
        assert main(["montecarlo", "--config", str(path)]) == 2
        assert "config says 'optimize'" in capsys.readouterr().err

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        assert main(["optimize", "--config", str(tmp_path / "absent.json")]) == 2
        assert "absent.json" in capsys.readouterr().err

    def test_bad_seed_exits_two(self, config_path, capsys):
        assert main(["optimize", "--config", str(config_path), "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_bad_thread_values_exit_two(self, config_path, monkeypatch, capsys):
        assert main(["optimize", "--config", str(config_path), "--threads", "0"]) == 2
        assert "threads" in capsys.readouterr().err
        monkeypatch.setenv("ISAC_DEPLOY_THREADS", "many")
        assert main(["optimize", "--config", str(config_path)]) == 2
        assert "ISAC_DEPLOY_THREADS" in capsys.readouterr().err

    def test_non_utf8_config_exits_two_with_byte_offset(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        text = json.dumps(DESK_CONFIG).encode()
        path.write_bytes(text + b"\xff")
        assert main(["optimize", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "config.json" in err and f"byte {len(text)}" in err

    def test_non_utf8_deployment_exits_two_with_byte_offset(self, tmp_path, config_path, capsys):
        path = tmp_path / "deployment.json"
        text = json.dumps({"poses": [{"x": 1.0, "y": 2.0, "theta": 0.0}]}).encode()
        path.write_bytes(text + b"\xff")
        assert main(["evaluate", "--config", str(config_path), str(path)]) == 2
        err = capsys.readouterr().err
        assert "deployment.json" in err and f"byte {len(text)}" in err

    @pytest.mark.parametrize("command", ["evaluate", "montecarlo"])
    def test_overflowing_scenario_snr_exits_two(self, tmp_path, command, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**DESK_CONFIG, "scenario": {"region_radius": 4.0, "snr_db": 4000}}))
        deployment = tmp_path / "deployment.json"
        deployment.write_text(json.dumps(deployment_to_dict(midpoint_baseline(Scenario(region_radius=4.0)))))
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        assert main(argv + ([str(deployment)] if command == "evaluate" else [])) == 2
        assert "scenario: snr_db" in capsys.readouterr().err

    def test_overflowing_sweep_snr_exits_two(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        experiment = {**DESK_CONFIG["experiment"], "snr_values_db": [4000.0, 0.0]}
        path.write_text(json.dumps({**DESK_CONFIG, "experiment": experiment}))
        assert main(["snr-sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "experiment: snr_values_db[0]" in capsys.readouterr().err
