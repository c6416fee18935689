"""Tests for the strict JSON configuration layer."""

import json
import math
import re

import pytest

from isacdeploy.config import (
    ConfigError,
    EXPERIMENT_KINDS,
    ExperimentConfig,
    ExperimentSettings,
    config_to_dict,
    deployment_to_dict,
    load_config,
    load_deployment,
    parse_config,
    parse_deployment,
    with_seed,
)
from isacdeploy import correlation
from isacdeploy.ga import GaParams
from isacdeploy.geometry import Deployment, Scenario, wavelength_of


class TestParseConfig:
    def test_empty_document_gives_reference_defaults(self):
        config = parse_config({}, expected_kind="optimize")
        assert config.scenario == Scenario()
        assert config.ga == GaParams()
        assert config.experiment == ExperimentSettings(kind="optimize")

    def test_every_kind_is_accepted(self):
        for kind in EXPERIMENT_KINDS:
            config = parse_config({"experiment": {"kind": kind}})
            assert config.experiment.kind == kind

    def test_full_document_round_trips_through_effective_dict(self):
        document = {
            "scenario": {
                "carrier_frequency": 1.2e9,
                "antennas_per_node": 6,
                "node_count": 4,
                "region_radius": 5.0,
                "region_center": [1.0, -2.0],
                "grid_resolution": 0.5,
                "snr_db": 5.0,
                "snapshot_count": 64,
                "alpha": 0.1,
            },
            "ga": {"population_size": 10, "elite_count": 2, "max_generations": 7},
            "experiment": {
                "kind": "montecarlo",
                "seed": 123,
                "random_deployment_count": 6,
                "trials_per_point": 2,
                "music": False,
            },
        }
        config = parse_config(document)
        effective = config_to_dict(config)
        assert json.loads(json.dumps(effective)) == json.loads(json.dumps(effective))
        assert parse_config(json.loads(json.dumps(effective))) == config

    def test_effective_dict_resolves_element_spacing(self):
        config = parse_config({}, expected_kind="optimize")
        effective = config_to_dict(config)
        assert effective["scenario"]["element_spacing"] == 0.5 * wavelength_of(2.4e9)

    def test_sweep_lists_become_tuples(self):
        config = parse_config(
            {"experiment": {"kind": "alpha-sweep", "alpha_values": [0.1, 0.3]}}
        )
        assert config.experiment.alpha_values == (0.1, 0.3)

    def test_unknown_top_level_key_is_an_error(self):
        with pytest.raises(ConfigError, match="unknown top-level key"):
            parse_config({"scenaro": {}}, expected_kind="optimize")

    def test_unknown_section_key_names_the_path(self):
        with pytest.raises(ConfigError, match=r"scenario\.snr: unknown key"):
            parse_config({"scenario": {"snr": 10}}, expected_kind="optimize")

    def test_unknown_key_error_lists_valid_keys(self):
        with pytest.raises(ConfigError, match="population_size"):
            parse_config({"ga": {"pop_size": 10}}, expected_kind="optimize")

    def test_section_must_be_an_object(self):
        with pytest.raises(ConfigError, match="ga: expected a JSON object"):
            parse_config({"ga": [1, 2]}, expected_kind="optimize")
        with pytest.raises(ConfigError, match="experiment: expected a JSON object"):
            parse_config({"experiment": "optimize"})

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ConfigError, match="top level"):
            parse_config([], expected_kind="optimize")

    def test_kind_is_required_without_a_command(self):
        with pytest.raises(ConfigError, match=r"experiment\.kind: required"):
            parse_config({})

    def test_kind_must_match_the_command(self):
        with pytest.raises(ConfigError, match="config says 'optimize' but the command is 'evaluate'"):
            parse_config({"experiment": {"kind": "optimize"}}, expected_kind="evaluate")

    def test_matching_explicit_kind_is_fine(self):
        config = parse_config({"experiment": {"kind": "optimize"}}, expected_kind="optimize")
        assert config.experiment.kind == "optimize"

    def test_invalid_kind_is_an_error(self):
        with pytest.raises(ConfigError, match="kind must be one of"):
            parse_config({"experiment": {"kind": "anneal"}})

    def test_booleans_are_not_numbers(self):
        with pytest.raises(ConfigError, match=r"scenario\.snr_db: expected a number, got True"):
            parse_config({"scenario": {"snr_db": True}}, expected_kind="optimize")
        with pytest.raises(ConfigError, match=r"experiment\.seed"):
            parse_config({"experiment": {"kind": "optimize", "seed": False}})

    def test_list_fields_take_lists_and_scalar_fields_take_numbers(self):
        with pytest.raises(ConfigError, match=r"experiment\.alpha_values: expected a list of numbers, got 0\.05"):
            parse_config({"experiment": {"kind": "alpha-sweep", "alpha_values": 0.05}})
        with pytest.raises(ConfigError, match=r"scenario\.region_center: expected a list of numbers"):
            parse_config({"scenario": {"region_center": "00"}}, expected_kind="optimize")
        with pytest.raises(ConfigError, match=r"scenario\.snr_db: expected a number, got \[5\]"):
            parse_config({"scenario": {"snr_db": [5]}}, expected_kind="optimize")

    def test_element_spacing_takes_null(self):
        config = parse_config({"scenario": {"element_spacing": None}}, expected_kind="optimize")
        assert config.scenario.element_spacing == 0.5 * wavelength_of(2.4e9)

    def test_music_accepts_booleans_only(self):
        config = parse_config({"experiment": {"kind": "montecarlo", "music": False}})
        assert config.experiment.music is False
        with pytest.raises(ConfigError, match="music must be a boolean"):
            parse_config({"experiment": {"kind": "montecarlo", "music": 1}})

    def test_seed_range_edges(self):
        assert parse_config({"experiment": {"kind": "optimize", "seed": 0}}).experiment.seed == 0
        top = 2**64 - 1
        assert parse_config({"experiment": {"kind": "optimize", "seed": top}}).experiment.seed == top
        for bad in (-1, 2**64, 1.5):
            with pytest.raises(ConfigError, match="seed"):
                parse_config({"experiment": {"kind": "optimize", "seed": bad}})

    def test_numbers_beyond_the_float_range_are_located_errors(self):
        # integers a float can hold keep their type; a larger one is an error wherever it stands
        document = {"scenario": {"carrier_frequency": 10**300}, "experiment": {"kind": "optimize", "seed": 2**64 - 1}}
        config = parse_config(document)
        assert type(config.scenario.carrier_frequency) is int and config.scenario.carrier_frequency == 10**300
        assert config.experiment.seed == 2**64 - 1
        cases = {
            "scenario.region_radius": {"scenario": {"region_radius": 10**400}},
            "ga.population_size": {"ga": {"population_size": 10**400}},
            r"experiment.seed": {"experiment": {"seed": -(10**400)}},
            r"experiment.snr_values_db\[1\]": {"experiment": {"snr_values_db": [0, 10**400]}},
        }
        for located, document in cases.items():
            document.setdefault("experiment", {})["kind"] = "optimize"
            with pytest.raises(ConfigError, match=rf"^{located}: expected a number within the float range"):
                parse_config(document)
        with pytest.raises(ConfigError, match=r"^poses\[1\]\.theta: expected a number within the float range"):
            parse_deployment({"poses": [{"x": 0, "y": 0, "theta": 0}, {"x": 0, "y": 0, "theta": 10**309}]})

    def test_empty_sweep_lists_are_errors(self):
        for key in ("alpha_values", "snr_values_db", "node_counts"):
            with pytest.raises(ConfigError, match=key):
                parse_config({"experiment": {"kind": "node-sweep", key: []}})

    def test_scenario_validation_errors_carry_the_block_name(self):
        with pytest.raises(ConfigError, match="scenario:"):
            parse_config({"scenario": {"node_count": 0}}, expected_kind="optimize")

    def test_ga_validation_errors_carry_the_block_name(self):
        with pytest.raises(ConfigError, match="ga:"):
            parse_config({"ga": {"population_size": 1}}, expected_kind="optimize")

    @pytest.mark.parametrize(
        "field", ["population_size", "elite_count", "tournament_size", "max_generations"]
    )
    @pytest.mark.parametrize("bad", [2.5, math.inf, math.nan, "4"])
    def test_ga_integer_fields_must_be_integral(self, field, bad):
        expected = rf"ga: {field} must be an integer >= \d, got"
        if bad == "4":
            expected = rf"ga\.{field}: expected a number, got '4'"
        with pytest.raises(ConfigError, match=expected):
            parse_config({"ga": {field: bad}}, expected_kind="optimize")

    def test_integral_floats_become_integers(self):
        ga = {"population_size": 8.0, "elite_count": 2.0, "tournament_size": 3.0, "max_generations": 4.0}
        config = parse_config({"ga": ga, "scenario": {"node_count": 3.0}}, expected_kind="optimize")
        assert config.ga == GaParams(population_size=8, elite_count=2, tournament_size=3, max_generations=4)
        echoed = config_to_dict(config)["ga"]
        assert all(type(echoed[key]) is int for key in ga)
        assert type(config.scenario.node_count) is int

    def test_integral_floats_become_integers_in_experiment_counts(self):
        counts = {"random_deployment_count": 6.0, "trials_per_point": 2.0, "node_counts": [2.0, 3]}
        settings = parse_config({"experiment": {"kind": "node-sweep", **counts}}).experiment
        values = (settings.random_deployment_count, settings.trials_per_point, *settings.node_counts)
        assert values == (6, 2, 2, 3)
        assert all(type(value) is int for value in values)

    @pytest.mark.parametrize("key", ["random_deployment_count", "trials_per_point", "node_counts"])
    @pytest.mark.parametrize("bad", [2.5, math.inf, math.nan, "2", 0])
    def test_experiment_counts_must_be_integral(self, key, bad):
        document = {"kind": "node-sweep", key: [3, bad] if key == "node_counts" else bad}
        name = "node_counts[1]" if key == "node_counts" else key
        expected = rf"experiment: {re.escape(name)} must be an integer >= 1, got"
        if bad == "2":
            expected = rf"experiment\.{re.escape(name)}: expected a number, got '2'"
        with pytest.raises(ConfigError, match=expected):
            parse_config({"experiment": document})

    def test_experiment_counts_reject_booleans_from_the_api(self):
        with pytest.raises(ValueError, match=r"node_counts\[0\] must be an integer"):
            ExperimentSettings(kind="node-sweep", node_counts=(True,))
        with pytest.raises(ValueError, match="trials_per_point must be an integer"):
            ExperimentSettings(kind="montecarlo", trials_per_point=True)

    @pytest.mark.parametrize(
        "key, values, what",
        [
            pytest.param("node_counts", [2, 2], "node count", id="counts0"),
            pytest.param("node_counts", [3, 2, 3.0], "node count", id="counts1"),
            pytest.param("snr_values_db", [20, 20], "level", id="snr0"),
            pytest.param("snr_values_db", [-10.0, 0.0, -0.0], "level", id="snr1"),
            pytest.param("alpha_values", [0.05, 0.05], "value", id="alpha0"),
            pytest.param("alpha_values", [0.2, 0.01, 0.2], "value", id="alpha1"),
        ],
    )
    def test_repeated_node_counts_are_a_config_error(self, key, values, what):
        # every sweep list, not only node_counts: a repeated entry would write duplicate rows
        with pytest.raises(ConfigError, match=f"experiment: {key} must list each {what} once"):
            parse_config({"experiment": {"kind": "node-sweep", key: values}})

    @pytest.mark.parametrize("count, ok", [(1, False), (2, True)])
    def test_alpha_sweep_needs_two_random_deployments(self, count, ok):
        document = {"experiment": {"kind": "alpha-sweep", "random_deployment_count": count}}
        if ok:
            assert parse_config(document).experiment.random_deployment_count == count
        else:
            with pytest.raises(ConfigError, match="experiment: random_deployment_count must be >= 2 for alpha-sweep"):
                parse_config(document)
        # the other experiments take a single random deployment
        assert parse_config({"experiment": {"kind": "montecarlo", "random_deployment_count": 1}})

    def test_infinite_scenario_integer_is_a_config_error(self):
        with pytest.raises(ConfigError, match="scenario: node_count must be an integer"):
            parse_config({"scenario": {"node_count": math.inf}}, expected_kind="optimize")


class TestGridSizeLimit:
    """Grids above MAX_GRID_POINTS are rejected while parsing; no weight matrix is built."""

    @pytest.fixture(autouse=True)
    def no_weight_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the weight matrix must not be built")

        monkeypatch.setattr(correlation, "_grid_weights", refuse)

    def test_the_fine_benchmark_grid_passes(self):
        config = parse_config({"scenario": {"grid_resolution": 0.25}}, expected_kind="optimize")
        assert config.scenario.grid_resolution == 0.25

    @pytest.mark.parametrize("resolution", [0.15, 0.1, 1e-300])
    def test_oversize_grids_name_the_resolution(self, resolution):
        with pytest.raises(ConfigError, match=r"scenario: grid_resolution .* MAX_GRID_POINTS = 10000"):
            parse_config({"scenario": {"grid_resolution": resolution}}, expected_kind="optimize")

    def test_limit_applies_to_the_point_count(self):
        # 0.153 m gives 10,057 points in the reference region and 0.155 m gives 9,785
        Scenario(grid_resolution=0.155)
        with pytest.raises(ValueError, match="MAX_GRID_POINTS"):
            Scenario(grid_resolution=0.153)


class TestLoadConfig:
    def test_loads_a_valid_file(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"experiment": {"kind": "optimize", "seed": 9}}))
        config = load_config(path)
        assert config.experiment.seed == 9

    def test_syntax_errors_carry_line_and_column(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"experiment": }')
        with pytest.raises(ConfigError, match=r"broken\.json:1:16"):
            load_config(path)

    def test_missing_file_is_a_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="nope.json"):
            load_config(tmp_path / "nope.json")


class TestWithSeed:
    def test_replaces_only_the_seed(self):
        config = parse_config({"experiment": {"kind": "optimize", "seed": 1, "music": False}})
        reseeded = with_seed(config, 99)
        assert reseeded.experiment.seed == 99
        assert reseeded.experiment.music is False
        assert reseeded.scenario == config.scenario
        assert reseeded.ga == config.ga
        assert config.experiment.seed == 1

    def test_result_is_a_full_config(self):
        config = parse_config({}, expected_kind="evaluate")
        assert isinstance(with_seed(config, 5), ExperimentConfig)


class TestDeploymentJson:
    def test_round_trip(self):
        deployment = Deployment([[1.0, 2.0, 0.5], [-3.0, 0.25, 3.0], [0.0, 0.0, 0.0]])
        assert parse_deployment(deployment_to_dict(deployment)) == deployment

    def test_dict_shape(self):
        deployment = Deployment([[1.0, -2.0, 0.25]])
        assert deployment_to_dict(deployment) == {
            "poses": [{"x": 1.0, "y": -2.0, "theta": 0.25}]
        }

    def test_integers_are_accepted_as_coordinates(self):
        deployment = parse_deployment({"poses": [{"x": 1, "y": 2, "theta": 0}]})
        assert deployment.poses.tolist() == [[1.0, 2.0, 0.0]]

    def test_top_level_shape_is_enforced(self):
        for document in ([], {}, {"poses": [], "extra": 1}, {"nodes": []}):
            with pytest.raises(ConfigError):
                parse_deployment(document)

    def test_poses_must_be_a_non_empty_list(self):
        with pytest.raises(ConfigError, match="non-empty"):
            parse_deployment({"poses": []})
        with pytest.raises(ConfigError, match="non-empty"):
            parse_deployment({"poses": {"x": 1}})

    def test_each_pose_needs_exactly_x_y_theta(self):
        with pytest.raises(ConfigError, match=r"poses\[0\]"):
            parse_deployment({"poses": [{"x": 1, "y": 2}]})
        with pytest.raises(ConfigError, match=r"poses\[1\]"):
            parse_deployment(
                {"poses": [{"x": 1, "y": 2, "theta": 0}, {"x": 1, "y": 2, "theta": 0, "z": 3}]}
            )

    def test_pose_values_must_be_numbers(self):
        with pytest.raises(ConfigError, match=r"poses\[0\]\.y: expected a number"):
            parse_deployment({"poses": [{"x": 1, "y": "2", "theta": 0}]})
        with pytest.raises(ConfigError, match=r"poses\[0\]\.theta: expected a number"):
            parse_deployment({"poses": [{"x": 1, "y": 2, "theta": True}]})

    def test_non_finite_values_are_rejected_with_the_pose_index(self):
        with pytest.raises(ConfigError, match=r"poses\[0\]"):
            parse_deployment({"poses": [{"x": math.nan, "y": 0, "theta": 0}]})

    def test_load_deployment_round_trip(self, tmp_path):
        deployment = Deployment([[0.5, -0.5, 1.0], [2.0, 2.0, 0.0]])
        path = tmp_path / "deployment.json"
        path.write_text(json.dumps(deployment_to_dict(deployment)))
        assert load_deployment(path) == deployment

    def test_load_deployment_reports_syntax_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"poses": [\n  {"x": }\n]}')
        with pytest.raises(ConfigError, match=r"broken\.json:2:9"):
            load_deployment(path)
