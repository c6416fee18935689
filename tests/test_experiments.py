"""Tests for the experiment drivers and their result bundles."""

import math
from dataclasses import replace

import numpy as np
import pytest

from isacdeploy.config import parse_config
from isacdeploy.correlation import build_codebook, max_weighted_correlation
from isacdeploy.experiments import (
    InfeasibleDeploymentError,
    ResultBundle,
    Table,
    derived_rng,
    run_alpha_sweep,
    run_evaluate,
    run_experiment,
    run_montecarlo,
    run_node_sweep,
    run_optimize,
    run_snr_sweep,
)
from isacdeploy.geometry import Deployment, deployment_violations


def desk_config(kind, *, scenario=None, experiment=None):
    document = {
        "scenario": {"region_radius": 4.0, "snapshot_count": 32, **(scenario or {})},
        "ga": {
            "population_size": 8,
            "elite_count": 2,
            "max_generations": 4,
            "tournament_size": 2,
        },
        "experiment": {
            "kind": kind,
            "seed": 7,
            "random_deployment_count": 6,
            "trials_per_point": 2,
            **(experiment or {}),
        },
    }
    return parse_config(document)


ALPHA_SWEEP_SETTINGS = {
    "alpha_values": [0.01, 0.05, 0.2],
    "random_deployment_count": 12,
    "trials_per_point": 4,
}


@pytest.fixture(scope="module")
def optimize_bundle():
    return run_optimize(desk_config("optimize"))


@pytest.fixture(scope="module")
def montecarlo_bundle():
    return run_montecarlo(desk_config("montecarlo"))


@pytest.fixture(scope="module")
def alpha_sweep_bundle():
    return run_alpha_sweep(desk_config("alpha-sweep", experiment=ALPHA_SWEEP_SETTINGS))


@pytest.fixture(scope="module")
def snr_sweep_bundle():
    return run_snr_sweep(desk_config("snr-sweep", experiment={"snr_values_db": [-10.0, 20.0]}))


@pytest.fixture(scope="module")
def node_sweep_bundle():
    return run_node_sweep(desk_config("node-sweep", experiment={"node_counts": [2, 3]}))


class TestDerivedRng:
    def test_same_key_path_reproduces_the_stream(self):
        first = derived_rng(5, 1, 2).random(4)
        second = derived_rng(5, 1, 2).random(4)
        np.testing.assert_array_equal(first, second)

    def test_distinct_key_paths_give_distinct_streams(self):
        draws = [derived_rng(5, *key).random(4) for key in ((0,), (1,), (0, 0), (2,))]
        for i in range(len(draws)):
            for j in range(i + 1, len(draws)):
                assert not np.array_equal(draws[i], draws[j])

    def test_seed_matters(self):
        assert not np.array_equal(derived_rng(1, 0).random(4), derived_rng(2, 0).random(4))


class TestTable:
    def test_rows_are_coerced_to_tuples(self):
        table = Table(("a", "b"), [[1, 2.0], (3, 4.0)])
        assert table.rows == ((1, 2.0), (3, 4.0))
        assert table.columns == ("a", "b")

    def test_ragged_rows_are_rejected(self):
        with pytest.raises(ValueError, match="one cell per column"):
            Table(("a", "b"), ((1,),))


class TestRunOptimize:
    @pytest.fixture
    def bundle(self, optimize_bundle):
        return optimize_bundle

    def test_bundle_shape(self, bundle):
        assert isinstance(bundle, ResultBundle)
        assert bundle.summary["kind"] == "optimize"
        assert set(bundle.tables) == {"convergence"}
        assert set(bundle.deployments) == {"optimized"}

    def test_convergence_table_tracks_generations(self, bundle):
        table = bundle.tables["convergence"]
        assert table.columns == ("generation", "best_fitness")
        assert [row[0] for row in table.rows] == list(range(5))
        values = [row[1] for row in table.rows]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert bundle.summary["best_fitness"] == values[-1]

    def test_summary_counts_evaluations(self, bundle):
        assert bundle.summary["evaluations"] == 8 + 4 * 6

    def test_summary_counts_fitness_cache_hits(self, bundle):
        assert 0 <= bundle.summary["fitness_cache_hits"] < bundle.summary["evaluations"]

    def test_checks_pass(self, bundle):
        assert bundle.checks == {
            "trace_non_increasing": True,
            "trace_length_matches_generations": True,
            "best_deployment_feasible": True,
        }

    def test_best_deployment_is_feasible(self, bundle):
        config = desk_config("optimize")
        assert deployment_violations(bundle.deployments["optimized"], config.scenario) == []

    def test_deterministic_across_runs(self, bundle):
        again = run_optimize(desk_config("optimize"))
        assert again.summary["best_fitness"] == bundle.summary["best_fitness"]
        assert again.deployments["optimized"] == bundle.deployments["optimized"]
        assert again.tables["convergence"].rows == bundle.tables["convergence"].rows

    def test_worst_pair_points_lie_on_the_grid(self, bundle):
        config = desk_config("optimize")
        codebook = build_codebook(bundle.deployments["optimized"], config.scenario)
        i, j = bundle.summary["worst_pair"]["indices"]
        assert bundle.summary["worst_pair"]["point_i"] == list(codebook.grid[i])
        assert bundle.summary["worst_pair"]["point_j"] == list(codebook.grid[j])


class TestRunMontecarlo:
    @pytest.fixture
    def bundle(self, montecarlo_bundle):
        return montecarlo_bundle

    def test_scatter_rows_and_ids(self, bundle):
        table = bundle.tables["scatter"]
        assert table.columns == ("deployment_id", "max_rho", "max_rmse")
        ids = [row[0] for row in table.rows]
        assert ids == ["optimized", "midpoint"] + [f"random-{k}" for k in range(6)]

    def test_rmse_column_is_finite_with_music_on(self, bundle):
        assert all(math.isfinite(row[2]) for row in bundle.tables["scatter"].rows)

    def test_summary_aggregates_the_ensemble(self, bundle):
        rhos = [row[1] for row in bundle.tables["scatter"].rows if row[0].startswith("random-")]
        assert bundle.summary["random_deployment_count"] == 6
        assert bundle.summary["random_min_max_rho"] == min(rhos)
        assert bundle.summary["random_mean_max_rho"] == pytest.approx(np.mean(rhos))
        assert -1.0 <= bundle.summary["pearson_gamma"] <= 1.0

    def test_optimized_wins_at_desk_scale(self, bundle):
        assert bundle.checks["optimized_has_lowest_max_rho"] is True
        assert bundle.checks["midpoint_row_present_once"] is True

    def test_small_ensembles_skip_the_gamma_check(self, bundle):
        assert "pearson_gamma_positive" not in bundle.checks

    def test_music_off_disables_rmse(self):
        bundle = run_montecarlo(desk_config("montecarlo", experiment={"music": False}))
        assert all(math.isnan(row[2]) for row in bundle.tables["scatter"].rows)
        assert bundle.summary["pearson_gamma"] is None

    def test_two_node_scenarios_have_no_midpoint_row(self):
        bundle = run_montecarlo(
            desk_config("montecarlo", scenario={"node_count": 2}, experiment={"music": False})
        )
        ids = [row[0] for row in bundle.tables["scatter"].rows]
        assert "midpoint" not in ids
        assert "midpoint_row_present_once" not in bundle.checks
        assert bundle.summary["midpoint_max_rho"] is None

    def test_deterministic(self, bundle):
        again = run_montecarlo(desk_config("montecarlo"))
        assert again.tables["scatter"].rows == bundle.tables["scatter"].rows


class TestRunAlphaSweep:
    @pytest.fixture
    def bundle(self, alpha_sweep_bundle):
        return alpha_sweep_bundle

    def test_gamma_table_covers_the_alphas(self, bundle):
        table = bundle.tables["gamma"]
        assert table.columns == ("alpha", "gamma")
        assert [row[0] for row in table.rows] == [0.01, 0.05, 0.2]
        assert all(-1.0 <= row[1] <= 1.0 for row in table.rows)

    def test_peak_is_consistent_with_the_table(self, bundle):
        best = max(bundle.tables["gamma"].rows, key=lambda row: row[1])
        assert bundle.summary["peak_alpha"] == best[0]
        assert bundle.summary["peak_gamma"] == best[1]

    def test_gamma_positive_at_desk_scale(self, bundle):
        assert bundle.checks == {"gamma_positive_for_all_alpha": True}

    def test_deterministic(self, bundle):
        again = run_alpha_sweep(desk_config("alpha-sweep", experiment=ALPHA_SWEEP_SETTINGS))
        assert again.tables["gamma"].rows == bundle.tables["gamma"].rows


class TestRunSnrSweep:
    @pytest.fixture
    def bundle(self, snr_sweep_bundle):
        return snr_sweep_bundle

    def test_rows_cover_every_snr_and_strategy(self, bundle):
        table = bundle.tables["snr"]
        assert table.columns == ("snr_db", "strategy", "max_rmse")
        strategies = [(row[0], row[1]) for row in table.rows]
        assert strategies == [
            (-10.0, "optimized"),
            (-10.0, "midpoint"),
            (-10.0, "random-best"),
            (-10.0, "random-mean"),
            (-10.0, "random-worst"),
            (20.0, "optimized"),
            (20.0, "midpoint"),
            (20.0, "random-best"),
            (20.0, "random-mean"),
            (20.0, "random-worst"),
        ]

    def test_random_aggregates_are_ordered(self, bundle):
        by_key = {(row[0], row[1]): row[2] for row in bundle.tables["snr"].rows}
        for snr in (-10.0, 20.0):
            assert by_key[(snr, "random-best")] <= by_key[(snr, "random-mean")]
            assert by_key[(snr, "random-mean")] <= by_key[(snr, "random-worst")]

    def test_summary_reports_the_gaps(self, bundle):
        by_key = {(row[0], row[1]): row[2] for row in bundle.tables["snr"].rows}
        expected_low = by_key[(-10.0, "midpoint")] - by_key[(-10.0, "optimized")]
        assert bundle.summary["gap_at_lowest_snr"] == expected_low
        assert bundle.summary["lowest_snr_db"] == -10.0
        assert bundle.summary["highest_snr_db"] == 20.0

    def test_checks_run_at_the_lowest_level_the_midpoint_resolves(self, bundle):
        by_key = {(row[0], row[1]): row[2] for row in bundle.tables["snr"].rows}
        means = bundle.summary["midpoint_mean_rmse"]
        assert means[0] >= 1.0 > means[1]
        assert bundle.summary["check_snr_db"] == 20.0
        assert bundle.summary["gap_at_check_snr"] == by_key[(20.0, "midpoint")] - by_key[(20.0, "optimized")]
        assert "check_snr_error" not in bundle.summary

    def test_checks_pass_at_desk_scale(self, bundle):
        assert bundle.checks["optimized_leq_midpoint_at_lowest_snr"] is True
        assert bundle.checks["gap_narrows_with_snr"] is True

    def test_two_node_scenarios_skip_the_midpoint(self):
        bundle = run_snr_sweep(
            desk_config(
                "snr-sweep",
                scenario={"node_count": 2},
                experiment={"snr_values_db": [0.0], "random_deployment_count": 2},
            )
        )
        strategies = [row[1] for row in bundle.tables["snr"].rows]
        assert strategies == ["optimized", "random-best", "random-mean", "random-worst"]
        assert bundle.checks == {}


class TestRunNodeSweep:
    @pytest.fixture
    def bundle(self, node_sweep_bundle):
        return node_sweep_bundle

    def test_rows_cover_counts_stats_and_metrics(self, bundle):
        table = bundle.tables["node_stats"]
        assert table.columns == ("node_count", "stat", "metric", "value")
        keys = {(row[0], row[1], row[2]) for row in table.rows}
        assert keys == {
            (j, stat, metric)
            for j in (2, 3)
            for stat in ("optimized", "best", "worst", "mean")
            for metric in ("max_rho", "max_rmse")
        }

    def test_optimized_deployments_have_the_requested_sizes(self, bundle):
        assert set(bundle.deployments) == {"optimized-j2", "optimized-j3"}
        assert bundle.deployments["optimized-j2"].node_count == 2
        assert bundle.deployments["optimized-j3"].node_count == 3

    def test_checks_pass_at_desk_scale(self, bundle):
        assert bundle.checks["optimized_leq_ensemble_best_max_rho"] is True
        assert bundle.checks["mean_max_rho_decreases_with_node_count"] is True

    def test_summary_matches_the_table(self, bundle):
        by_key = {(row[0], row[1], row[2]): row[3] for row in bundle.tables["node_stats"].rows}
        stats = bundle.summary["by_node_count"]["2"]
        assert stats["optimized_max_rho"] == by_key[(2, "optimized", "max_rho")]
        assert stats["ensemble_best_max_rho"] == by_key[(2, "best", "max_rho")]
        assert stats["ensemble_mean_max_rmse"] == by_key[(2, "mean", "max_rmse")]

    def test_optimized_max_rho_matches_the_saved_deployment(self, bundle):
        for node_count in (2, 3):
            scenario = replace(desk_config("node-sweep").scenario, node_count=node_count)
            saved = bundle.deployments[f"optimized-j{node_count}"]
            recomputed = max_weighted_correlation(build_codebook(saved, scenario)).max_value
            assert bundle.summary["by_node_count"][str(node_count)]["optimized_max_rho"] == recomputed

    def test_trend_check_compares_counts_in_ascending_order(self):
        listed, reversed_ = (
            run_node_sweep(desk_config("node-sweep", experiment={"node_counts": counts, "music": False}))
            for counts in ([2, 3], [3, 2])
        )
        assert reversed_.summary["node_counts"] == [3, 2]
        assert reversed_.summary["by_node_count"] == listed.summary["by_node_count"]
        assert reversed_.checks == listed.checks

    def test_music_off_drops_the_rmse_rows(self):
        bundle = run_node_sweep(
            desk_config("node-sweep", experiment={"node_counts": [2], "music": False})
        )
        metrics = {row[2] for row in bundle.tables["node_stats"].rows}
        assert metrics == {"max_rho"}


class TestRunEvaluate:
    @pytest.fixture
    def deployment(self):
        return Deployment([[0.0, 2.0, 0.0], [-2.0, -1.0, 2.0], [2.0, -1.0, 4.0]])

    def test_metrics_match_direct_computation(self, deployment):
        config = desk_config("evaluate")
        bundle = run_evaluate(config, deployment)
        report = max_weighted_correlation(build_codebook(deployment, config.scenario))
        assert bundle.summary["max_rho"] == report.max_value
        assert tuple(bundle.summary["worst_pair"]["indices"]) == report.arg_pair
        row = bundle.tables["evaluation"].rows[0]
        assert row[0] == report.max_value
        assert (row[1], row[2]) == report.arg_pair
        assert math.isfinite(row[3])
        assert bundle.summary["max_rmse"] == row[3]
        assert bundle.checks == {}

    def test_music_off_reports_nan(self, deployment):
        bundle = run_evaluate(desk_config("evaluate", experiment={"music": False}), deployment)
        assert bundle.summary["max_rmse"] is None
        assert math.isnan(bundle.tables["evaluation"].rows[0][3])

    def test_infeasible_deployment_is_rejected(self):
        outside = Deployment([[10.0, 10.0, 0.0]])
        with pytest.raises(InfeasibleDeploymentError) as excinfo:
            run_evaluate(desk_config("evaluate"), outside)
        assert excinfo.value.violations


class TestRunExperiment:
    def test_dispatches_by_kind(self):
        bundle = run_experiment(desk_config("optimize"))
        assert bundle.summary["kind"] == "optimize"

    def test_evaluate_needs_a_deployment(self):
        with pytest.raises(ValueError, match="deployment"):
            run_experiment(desk_config("evaluate"))

    def test_evaluate_dispatch(self):
        deployment = Deployment([[0.0, 1.0, 0.0], [0.0, -1.0, 1.0]])
        config = desk_config("evaluate", scenario={"node_count": 2})
        bundle = run_experiment(config, deployment=deployment)
        assert bundle.summary["kind"] == "evaluate"


def test_every_summary_starts_with_kind_and_seed(
    optimize_bundle, montecarlo_bundle, alpha_sweep_bundle, snr_sweep_bundle, node_sweep_bundle
):
    evaluated = run_evaluate(desk_config("evaluate"), montecarlo_bundle.deployments["optimized"])
    bundles = {
        "optimize": optimize_bundle,
        "montecarlo": montecarlo_bundle,
        "alpha-sweep": alpha_sweep_bundle,
        "snr-sweep": snr_sweep_bundle,
        "node-sweep": node_sweep_bundle,
        "evaluate": evaluated,
    }
    for kind, bundle in bundles.items():
        assert list(bundle.summary)[:2] == ["kind", "seed"]
        assert (bundle.summary["kind"], bundle.summary["seed"]) == (kind, 7)


class TestCommonRandomNumbers:
    def test_rmse_is_reproduced_across_commands(self, montecarlo_bundle):
        sweep = run_snr_sweep(desk_config("snr-sweep", experiment={"snr_values_db": [0.0]}))
        by_id = {row[0]: row[2] for row in montecarlo_bundle.tables["scatter"].rows}
        by_strategy = {row[1]: row[2] for row in sweep.tables["snr"].rows}
        assert by_strategy["optimized"] == by_id["optimized"]
        assert by_strategy["midpoint"] == by_id["midpoint"]

    def test_evaluate_reproduces_the_montecarlo_rmse(self, montecarlo_bundle):
        evaluated = run_evaluate(
            desk_config("evaluate"), montecarlo_bundle.deployments["optimized"]
        )
        by_id = {row[0]: row[2] for row in montecarlo_bundle.tables["scatter"].rows}
        assert evaluated.summary["max_rmse"] == by_id["optimized"]
        assert evaluated.summary["max_rho"] == montecarlo_bundle.summary["optimized_max_rho"]
