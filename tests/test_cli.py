"""Tests for the command-line interface (run directories and exit codes)."""

import hashlib
import json

import pytest

from isacdeploy import cli, correlation, experiments
from isacdeploy.cli import main
from isacdeploy.config import config_to_dict, deployment_to_dict, parse_config
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


NUMBER_FIELDS = {
    "scenario": (
        "carrier_frequency",
        "antennas_per_node",
        "node_count",
        "region_radius",
        "grid_resolution",
        "snr_db",
        "snapshot_count",
        "alpha",
        "element_spacing",
    ),
    "ga": (
        "population_size",
        "crossover_probability",
        "mutation_probability",
        "eta_crossover",
        "eta_mutation",
        "elite_count",
        "tournament_size",
        "max_generations",
    ),
    "experiment": ("seed", "random_deployment_count", "trials_per_point"),
}
LIST_FIELDS = {"scenario": ("region_center",), "experiment": ("alpha_values", "snr_values_db", "node_counts")}
# (block, bad settings, the field the error must name): each number field
# given a string, each list field a boolean and a string entry
MALFORMED_VALUES = [
    *(
        pytest.param(block, {key: "5"}, f"{block}.{key}", id=f"{block}.{key}-string")
        for block, keys in NUMBER_FIELDS.items()
        for key in keys
    ),
    *(
        pytest.param(block, {key: [1, entry]}, f"{block}.{key}[1]", id=f"{block}.{key}-{type(entry).__name__}")
        for block, keys in LIST_FIELDS.items()
        for key in keys
        for entry in (True, "1")
    ),
]


@pytest.fixture(autouse=True)
def run_in_tmp_path(tmp_path, monkeypatch):
    # a run that takes the default --out must not write into the checkout
    monkeypatch.chdir(tmp_path)


@pytest.fixture
def refuse_runs(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the experiment must not start")

    monkeypatch.setattr(cli, "run_experiment", refuse)


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

    # an unevolved population of 3 that a random deployment beats on max_rho
    FAILING_CONFIG = {
        "scenario": {"region_radius": 4.0, "snapshot_count": 32},
        "ga": {"population_size": 3, "elite_count": 1, "max_generations": 0},
        "experiment": {"seed": 1, "random_deployment_count": 6, "music": False},
    }

    def test_failed_checks_exit_one_with_a_report(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.FAILING_CONFIG))
        out = tmp_path / "run"
        assert main(["montecarlo", "--config", str(path), "--out", str(out)]) == 1
        report = json.loads((out / "failure-report.json").read_text())
        assert report["failed_checks"] == ["optimized_has_lowest_max_rho"]
        assert report["checks"]["optimized_has_lowest_max_rho"] is False
        summary = read_summary(out)
        assert summary["checks"]["optimized_has_lowest_max_rho"] is False
        assert (out / "scatter.csv").exists()
        assert "check failed: optimized_has_lowest_max_rho" in capsys.readouterr().err

    def test_a_passing_rerun_removes_the_old_failure_report(self, tmp_path, config_path):
        failing = tmp_path / "failing.json"
        failing.write_text(json.dumps(self.FAILING_CONFIG))
        out = tmp_path / "run"
        assert main(["montecarlo", "--config", str(failing), "--out", str(out)]) == 1
        assert (out / "failure-report.json").exists()
        assert main(["montecarlo", "--config", str(config_path), "--out", str(out)]) == 0
        assert all(read_summary(out)["checks"].values())
        assert not (out / "failure-report.json").exists()

    def test_the_gamma_check_of_100_layouts_sets_the_exit_code(self, tmp_path):
        config = json.loads(json.dumps(DESK_CONFIG))
        config["experiment"]["random_deployment_count"] = 100
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "run"
        code = main(["montecarlo", "--config", str(path), "--out", str(out)])
        summary = read_summary(out)
        positive = summary["checks"]["pearson_gamma_positive"]
        assert positive == (summary["pearson_gamma"] > 0.0)
        assert code == (0 if positive else 1)


class TestUndefinedGamma:
    """At 60 dB every random desk layout localizes without error, so the max
    RMSE column is constant and the Pearson gamma is undefined: a run still
    writes every artifact, and reports the gamma as null (`nan` in a CSV)."""

    ARTIFACTS = [
        "config-echo.json",
        "deployment-midpoint.json",
        "deployment-optimized.json",
        "scatter.csv",
        "summary.json",
    ]

    def write_config(self, tmp_path, random_deployment_count):
        config = json.loads(json.dumps(DESK_CONFIG))
        config["scenario"]["snr_db"] = 60
        config["experiment"]["random_deployment_count"] = random_deployment_count
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_montecarlo_reports_a_null_gamma(self, tmp_path):
        out = tmp_path / "run"
        assert main(["montecarlo", "--config", str(self.write_config(tmp_path, 3)), "--out", str(out)]) == 0
        assert sorted(artifact.name for artifact in out.iterdir()) == self.ARTIFACTS
        assert {line.split(",")[2] for line in (out / "scatter.csv").read_text().splitlines()[1:]} == {"0"}
        summary = read_summary(out)
        assert summary["pearson_gamma"] is None
        assert "pearson_gamma_positive" not in summary["checks"]

    def test_montecarlo_of_100_layouts_fails_the_gamma_check(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["montecarlo", "--config", str(self.write_config(tmp_path, 100)), "--out", str(out)]) == 1
        assert sorted(artifact.name for artifact in out.iterdir()) == sorted(self.ARTIFACTS + ["failure-report.json"])
        report = json.loads((out / "failure-report.json").read_text())
        assert report["failed_checks"] == ["pearson_gamma_positive"]
        summary = read_summary(out)
        assert summary["pearson_gamma"] is None
        assert summary["checks"]["pearson_gamma_positive"] is False
        assert "check failed: pearson_gamma_positive" in capsys.readouterr().err

    def test_alpha_sweep_writes_nan_rows_and_null_peaks(self, tmp_path):
        out = tmp_path / "run"
        assert main(["alpha-sweep", "--config", str(self.write_config(tmp_path, 3)), "--out", str(out)]) == 1
        lines = (out / "gamma.csv").read_text().splitlines()
        assert lines[0] == "alpha,gamma"
        assert [line.split(",")[1] for line in lines[1:]] == ["nan"] * 4
        summary = read_summary(out)
        assert summary["peak_alpha"] is None
        assert summary["peak_gamma"] is None
        report = json.loads((out / "failure-report.json").read_text())
        assert report == {"failed_checks": ["gamma_positive_for_all_alpha"], "checks": summary["checks"]}


class TestSnrSweepCommand:
    def write_config(self, tmp_path, seed, snr_values_db):
        config = json.loads(json.dumps(DESK_CONFIG))
        config["experiment"].update(seed=seed, random_deployment_count=2, snr_values_db=snr_values_db)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_gap_checks_run_at_the_lowest_resolved_level(self, tmp_path):
        # at -10 dB MUSIC is in its outlier regime and the optimized worst point
        # loses; the checks run at 0 dB, the lowest level the midpoint resolves
        path = self.write_config(tmp_path, 11, [-10.0, 0.0, 20.0])
        out = tmp_path / "run"
        assert main(["snr-sweep", "--config", str(path), "--out", str(out)]) == 0
        summary = read_summary(out)
        means = summary["midpoint_mean_rmse"]
        assert means[0] >= 1.0 > means[1]
        assert summary["check_snr_db"] == 0.0
        assert summary["gap_at_lowest_snr"] < 0.0 <= summary["gap_at_check_snr"]
        assert summary["checks"] == {"optimized_leq_midpoint_at_lowest_snr": True, "gap_narrows_with_snr": True}
        assert not (out / "failure-report.json").exists()

    def test_no_resolved_level_fails_the_gap_checks(self, tmp_path, capsys):
        path = self.write_config(tmp_path, 8, [-10.0, -5.0])
        out = tmp_path / "run"
        assert main(["snr-sweep", "--config", str(path), "--out", str(out)]) == 1
        summary = read_summary(out)
        assert min(summary["midpoint_mean_rmse"]) >= 1.0
        assert summary["check_snr_db"] is None
        assert "no SNR level has a midpoint spatial-mean RMSE below grid_resolution" in summary["check_snr_error"]
        report = json.loads((out / "failure-report.json").read_text())
        assert report["failed_checks"] == ["gap_narrows_with_snr", "optimized_leq_midpoint_at_lowest_snr"]
        assert "check failed: gap_narrows_with_snr" in capsys.readouterr().err


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

    def test_thread_count_does_not_change_the_results(self, tmp_path, config_path):
        deployment = tmp_path / "deployment.json"
        deployment.write_text(json.dumps(deployment_to_dict(midpoint_baseline(Scenario(region_radius=4.0)))))
        serial = tmp_path / "serial"
        flagged = tmp_path / "flagged"
        evaluate = ["evaluate", "--config", str(config_path), str(deployment), "--out"]
        assert main(evaluate + [str(serial)]) == 0
        assert main(evaluate + [str(flagged), "--threads", "2"]) == 0
        reference = (serial / "evaluation.csv").read_bytes()
        assert "nan" not in reference.decode()
        assert (flagged / "evaluation.csv").read_bytes() == reference

    def test_without_a_config_the_reference_settings_run(self, tmp_path):
        deployment = tmp_path / "deployment.json"
        deployment.write_text(json.dumps(deployment_to_dict(midpoint_baseline(Scenario()))))
        out = tmp_path / "run"
        assert main(["evaluate", str(deployment), "--out", str(out)]) == 0
        echo = json.loads((out / "config-echo.json").read_text())
        assert echo == json.loads(json.dumps(config_to_dict(parse_config({}, "evaluate"))))

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

    def test_a_level_that_sends_nothing_exits_two(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": {"snr_db": -4000}}))
        assert main(["optimize", "--config", str(path)]) == 2
        assert "scenario.snr_db must be above about -3236.1 dB" in capsys.readouterr().err
        path.write_text(json.dumps({"experiment": {"kind": "snr-sweep", "snr_values_db": [0, -4000]}}))
        assert main(["snr-sweep", "--config", str(path)]) == 2
        assert "experiment.snr_values_db[1]: snr_db must be above about -3236.1 dB" in capsys.readouterr().err

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

    def test_bad_thread_values_exit_two(self, config_path, capsys):
        for value in ("0", "-1"):
            assert main(["optimize", "--config", str(config_path), "--threads", value]) == 2
            assert f"threads must be an integer >= 1, got {value}" in capsys.readouterr().err
        # beyond the float range the Monte Carlo would refuse it mid-run, so the CLI stops it first
        assert main(["montecarlo", "--config", str(config_path), "--threads", "1" + "0" * 400]) == 2
        assert capsys.readouterr().err == "error: threads: expected a number within the float range, got a 401-digit integer\n"

    @pytest.mark.parametrize("kind", ["existing file", "path under a file"])
    def test_unusable_out_exits_two_before_the_run(self, tmp_path, config_path, refuse_runs, kind, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("keep me\n")
        out = blocker if kind == "existing file" else blocker / "run"
        assert main(["optimize", "--config", str(config_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: --out {out}: " in err
        assert "Traceback" not in err
        assert blocker.read_text() == "keep me\n"

    @pytest.mark.parametrize("block, value, located", MALFORMED_VALUES)
    def test_malformed_config_values_exit_two_with_the_field(
        self, tmp_path, refuse_runs, block, value, located, capsys
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**DESK_CONFIG, block: {**DESK_CONFIG[block], **value}}))
        assert main(["node-sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: {located}: expected a number, got " in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

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
        # 4000 dB overflows the power itself, 3070 dB only the sample covariance.
        deployment = tmp_path / "deployment.json"
        deployment.write_text(json.dumps(deployment_to_dict(midpoint_baseline(Scenario(region_radius=4.0)))))
        for snr_db in (4000, 3070):
            path = tmp_path / "config.json"
            path.write_text(json.dumps({**DESK_CONFIG, "scenario": {"region_radius": 4.0, "snr_db": snr_db}}))
            argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
            assert main(argv + ([str(deployment)] if command == "evaluate" else [])) == 2
            assert "scenario.snr_db" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ga, code",
        [
            ({"max_generations": 2.5}, 2),
            ({"population_size": 8.0}, 0),
            ({"tournament_size": 2.5}, 2),
            ({"elite_count": 2.0}, 0),
        ],
    )
    def test_fractional_ga_settings_exit_two_integral_ones_run(self, tmp_path, ga, code, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**DESK_CONFIG, "ga": {**DESK_CONFIG["ga"], **ga}}))
        assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")]) == code
        if code == 2:
            assert f"ga.{next(iter(ga))} must be an integer" in capsys.readouterr().err
        else:
            echoed = json.loads((tmp_path / "out" / "config-echo.json").read_text())["ga"]
            assert all(type(echoed[key]) is int for key in ga)

    def test_repeated_node_counts_exit_two_before_any_run(self, tmp_path, capsys):
        # and repeated entries of the other sweep lists, which would write duplicate rows
        cases = [
            ("node-sweep", "node_counts", [2, 2], "node count"),
            ("snr-sweep", "snr_values_db", [20, 20], "level"),
            ("alpha-sweep", "alpha_values", [0.05, 0.05], "value"),
        ]
        for command, key, values, what in cases:
            path = tmp_path / "config.json"
            experiment = {**DESK_CONFIG["experiment"], key: values, "music": False}
            path.write_text(json.dumps({**DESK_CONFIG, "experiment": experiment}))
            assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            assert f"experiment.{key} must list each {what} once" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_alpha_sweep_of_one_random_deployment_exits_two_before_any_run(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep must not start")

        monkeypatch.setattr(experiments, "run_alpha_sweep", refuse)
        path = tmp_path / "config.json"
        experiment = {**DESK_CONFIG["experiment"], "random_deployment_count": 1}
        path.write_text(json.dumps({**DESK_CONFIG, "experiment": experiment}))
        assert main(["alpha-sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "experiment.random_deployment_count must be >= 2 for alpha-sweep" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_oversize_grid_exits_two(self, tmp_path, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the weight matrix must not be built")

        monkeypatch.setattr(correlation, "_grid_weights", refuse)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"scenario": {"grid_resolution": 0.1}}))
        assert main(["evaluate", "--config", str(path), str(tmp_path / "unread.json")]) == 2
        assert "scenario.grid_resolution 0.1" in capsys.readouterr().err

    def test_a_ga_without_elites_exits_two_before_any_run(self, tmp_path, refuse_runs, capsys):
        # elitism is what keeps the best fitness from rising between generations
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**DESK_CONFIG, "ga": {**DESK_CONFIG["ga"], "elite_count": 0}}))
        assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "ga.elite_count must be an integer >= 1, got 0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["optimize", "evaluate"])
    def test_an_alpha_that_overflows_the_pair_weights_exits_two(self, tmp_path, refuse_runs, command, capsys):
        # at radius 4 m the weight 8^alpha overflows above alpha = 341.3
        deployment = tmp_path / "deployment.json"
        deployment.write_text(json.dumps(deployment_to_dict(midpoint_baseline(Scenario(region_radius=4.0)))))
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**DESK_CONFIG, "scenario": {**DESK_CONFIG["scenario"], "alpha": 400}}))
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        assert main(argv + ([str(deployment)] if command == "evaluate" else [])) == 2
        err = capsys.readouterr().err
        assert "scenario.alpha must be at most 341.333 for region_radius 4" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_a_radius_that_a_float_cannot_resolve_exits_two(self, tmp_path, refuse_runs, capsys):
        # a float spaces coordinates near 1e17 m by 16 m: every node's elements would round onto one point
        path = tmp_path / "config.json"
        path.write_text(json.dumps({**DESK_CONFIG, "scenario": {"region_radius": 1e17, "grid_resolution": 1e16}}))
        assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "scenario.region_radius 1e+17 is too large: coordinates up to 1e+17 m are resolved only to 16 m" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_an_overflowing_sweep_alpha_exits_two(self, tmp_path, refuse_runs, capsys):
        path = tmp_path / "config.json"
        experiment = {**DESK_CONFIG["experiment"], "alpha_values": [0.05, 400]}
        path.write_text(json.dumps({**DESK_CONFIG, "experiment": experiment}))
        assert main(["alpha-sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "experiment.alpha_values[1]: alpha must be at most 341.333" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_an_alpha_just_below_the_overflow_runs(self, tmp_path):
        path = tmp_path / "config.json"
        experiment = {**DESK_CONFIG["experiment"], "alpha_values": [0.05, 340]}
        scenario = {**DESK_CONFIG["scenario"], "alpha": 340}
        path.write_text(json.dumps({**DESK_CONFIG, "scenario": scenario, "experiment": experiment}))
        assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "optimize")]) == 0
        assert 1e300 < read_summary(tmp_path / "optimize")["best_fitness"] < float("inf")
        # exit 1 is the failed gamma_positive_for_all_alpha check at this seed; the sums of
        # squares of max_rho values near 1e307 must not overflow into a gamma of -0
        assert main(["alpha-sweep", "--config", str(path), "--out", str(tmp_path / "sweep")]) == 1
        gammas = [float(row.split(",")[1]) for row in (tmp_path / "sweep" / "gamma.csv").read_text().splitlines()[1:]]
        assert len(gammas) == 2 and all(gamma != 0.0 and -1.0 <= gamma <= 1.0 for gamma in gammas)

    def test_overflowing_sweep_snr_exits_two(self, tmp_path, capsys):
        for snr_db in (4000.0, 3070.0):
            path = tmp_path / "config.json"
            experiment = {**DESK_CONFIG["experiment"], "snr_values_db": [snr_db, 0.0]}
            path.write_text(json.dumps({**DESK_CONFIG, "experiment": experiment}))
            assert main(["snr-sweep", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
            assert "experiment.snr_values_db[0]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, located",
        [("optimize", "scenario.region_radius"), ("evaluate", "poses[0].x")],
    )
    def test_an_integer_beyond_the_float_range_exits_two_with_its_path(
        self, tmp_path, refuse_runs, command, located, capsys
    ):
        # JSON holds 10^400 as an integer; no float can
        config = {**DESK_CONFIG, "scenario": {**DESK_CONFIG["scenario"], "region_radius": 10**400}}
        poses = deployment_to_dict(midpoint_baseline(Scenario(region_radius=4.0)))["poses"]
        (tmp_path / "config.json").write_text(json.dumps(DESK_CONFIG if command == "evaluate" else config))
        (tmp_path / "deployment.json").write_text(json.dumps({"poses": [{**poses[0], "x": 10**400}, *poses[1:]]}))
        argv = [command, "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
        assert main(argv + ([str(tmp_path / "deployment.json")] if command == "evaluate" else [])) == 2
        err = capsys.readouterr().err
        assert err == f"error: {located}: expected a number within the float range, got a 401-digit integer\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "text, reason",
        [
            ('{"seed": 1' + "0" * 5000 + "}", "Exceeds the limit (4300 digits)"),
            ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
        ],
        ids=["5001-digit integer", "100000 nested lists"],
    )
    def test_json_beyond_the_parser_limits_exits_two(self, tmp_path, refuse_runs, text, reason, capsys):
        path = tmp_path / "config.json"
        path.write_text(text)
        assert main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {reason}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, scenario, experiment, block",
        [
            ("evaluate", {"snapshot_count": 10**12}, {}, "3.84e+14"),
            ("montecarlo", {}, {"trials_per_point": 10**9}, "6.14e+12"),
            # the 400-node level, not the scenario's 3 nodes, sets the block
            ("node-sweep", {"snapshot_count": 2_000_000}, {"node_counts": [2, 400]}, "1.02e+11"),
        ],
        ids=["evaluate", "montecarlo", "node-sweep"],
    )
    def test_a_noise_block_above_the_cap_exits_two_before_the_run(
        self, tmp_path, refuse_runs, command, scenario, experiment, block, capsys
    ):
        config = {
            "scenario": {**DESK_CONFIG["scenario"], **scenario},
            "experiment": {**DESK_CONFIG["experiment"], **experiment},
        }
        (tmp_path / "config.json").write_text(json.dumps(config))
        (tmp_path / "deployment.json").write_text(
            json.dumps(deployment_to_dict(midpoint_baseline(Scenario(region_radius=4.0))))
        )
        argv = [command, "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]
        assert main(argv + ([str(tmp_path / "deployment.json")] if command == "evaluate" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: experiment.trials_per_point: ") and err.count("\n") == 1
        assert f"a {block}-byte noise block, above MAX_NOISE_BLOCK_BYTES = 1073741824" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["optimize", "montecarlo"])
    @pytest.mark.parametrize("center", [1e15, 1e17])
    def test_a_region_center_too_far_from_the_origin_exits_two_before_the_run(
        self, tmp_path, refuse_runs, command, center, capsys
    ):
        # a float resolves coordinates near 1e15 m to 0.125 m and near 1e17 m to 16 m,
        # coarser than the 0.0625 m element spacing
        scenario = {**DESK_CONFIG["scenario"], "region_center": [center, 0.0]}
        (tmp_path / "config.json").write_text(json.dumps({**DESK_CONFIG, "scenario": scenario}))
        assert main([command, "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: scenario.region_center ") and err.count("\n") == 1
        assert "too far from the origin" in err
        assert not (tmp_path / "out").exists()


class TestGoldenArtifacts:
    """The files that the six desk subcommands of acceptance criterion 12 write
    at --threads 1, pinned by sha256: a change to any result shows here.
    `summary.json` is hashed without its `wall_time_seconds` line."""

    EXTRAS = {
        "optimize": {},
        "montecarlo": {},
        "alpha-sweep": {"alpha_values": [0.01, 0.05, 0.2], "random_deployment_count": 12, "trials_per_point": 4},
        "snr-sweep": {"snr_values_db": [-10.0, 20.0]},
        "node-sweep": {"node_counts": [2, 3]},
        "evaluate": {},
    }
    DIGESTS = {
        "optimize/config-echo.json": "c16c1712da79a9c65befb69c68b83071facebb860e6d1f39bba760aab6360714",
        "optimize/convergence.csv": "8667d512fc1cfcf149fc1a1850ebd02ff2072c6b6624bb11f25c912fab7f7ef6",
        "optimize/deployment-optimized.json": "8bedf584dee5bd0f1cb9d46de7096c39bd7120e3690f25ae32f805421947fa59",
        "optimize/summary.json": "da29601adbe312931e646711b4f05546b40eed0548480d582c6d6a4565262625",
        "montecarlo/config-echo.json": "d73755350b21b2fc2edc7258a064d3cfad06af85bfe539e39fe4f14c411d271a",
        "montecarlo/deployment-midpoint.json": "4dedf8b9ef9bdd9b331c37717452578b2de35ddff4fa2828ce789b991083d668",
        "montecarlo/deployment-optimized.json": "8bedf584dee5bd0f1cb9d46de7096c39bd7120e3690f25ae32f805421947fa59",
        "montecarlo/scatter.csv": "dc8e43e86230b517d300611148f89eb398bc666991224b48ee1d397cc3c56f31",
        "montecarlo/summary.json": "eb8ce4de7f581d2ad088166ff2ae8887572aaec4d8c0c4391314bef8c9ef73ba",
        "alpha-sweep/config-echo.json": "b37c3a6a3d379d15cc87982cb612e87768388154359d68a0f9bfcf7f6991a792",
        "alpha-sweep/gamma.csv": "8b501e1310030ab426b818e84915945f16f5af4a5a34ae3c5ef48c76fb5642af",
        "alpha-sweep/summary.json": "2875de0bd24c8bd19271c05391f1bec13fff2f0ecd9a6559d549a61ecb3b16ba",
        "snr-sweep/config-echo.json": "7e90b225bdad39731e28640eccb8278c06f09c3ca8aabf79114690d89e33e46c",
        "snr-sweep/deployment-midpoint.json": "4dedf8b9ef9bdd9b331c37717452578b2de35ddff4fa2828ce789b991083d668",
        "snr-sweep/deployment-optimized.json": "8bedf584dee5bd0f1cb9d46de7096c39bd7120e3690f25ae32f805421947fa59",
        "snr-sweep/snr.csv": "378fd347c5b7113893cdc886f057af763c2bab8909fd76aaa1d923032428b963",
        "snr-sweep/summary.json": "2d08cc35faf016c075878520e0d80bebf55cee604ce6bed4ec9f72be4fc9f2f4",
        "node-sweep/config-echo.json": "85ab27d5cd9df8cd82c3c167a26df3bf782540bbcb6fa6f06f5508132ede84e6",
        "node-sweep/deployment-optimized-j2.json": "b6bff4546b0a4bc8e8bf098d7f71c1765f2f7a23cdc381298951ee39295a097a",
        "node-sweep/deployment-optimized-j3.json": "2df9054d99bd0067c6236886043abf70a203bc109ef9a33436b3c7fdc655c1d6",
        "node-sweep/node_stats.csv": "5a533c86028fa0d1483a4960b3d628c142349fe97372bd6a7919eec251f048ba",
        "node-sweep/summary.json": "7f85d94515b37f0bfdc612d89f0e3cca98bf64f714dc20aceeeff76caa49a8e4",
        "evaluate/config-echo.json": "88f0feee29e3ad2b65a8c3100c97adce3d8c537cbd63b48b0da76487f784b5b4",
        "evaluate/evaluation.csv": "1d1d1e8bc7524e869f931dee68ea47f369d801fdbd2ab68d0d5262bd310de684",
        "evaluate/summary.json": "adf0cfea78ec7aa516fe237c3c4e0271f64c205d9d72dac9aa371db8f23ea551",
    }

    @classmethod
    def digests(cls, tmp_path):
        deployment = tmp_path / "deployment.json"
        deployment.write_text(json.dumps(deployment_to_dict(midpoint_baseline(Scenario(region_radius=4.0)))))
        found = {}
        for command, extra in cls.EXTRAS.items():
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps({**DESK_CONFIG, "experiment": {**DESK_CONFIG["experiment"], **extra}}))
            out_dir = tmp_path / command
            argv = [command, "--config", str(path), "--out", str(out_dir), "--threads", "1"]
            assert main(argv + ([str(deployment)] if command == "evaluate" else [])) == 0, command
            for artifact in sorted(out_dir.iterdir()):
                data = artifact.read_bytes()
                if artifact.name == "summary.json":
                    data = b"".join(line for line in data.splitlines(True) if b'"wall_time_seconds"' not in line)
                found[f"{command}/{artifact.name}"] = hashlib.sha256(data).hexdigest()
        return found

    def test_every_artifact_is_byte_identical(self, tmp_path):
        assert self.digests(tmp_path) == self.DIGESTS
