"""Each output check passes the program's real output and rejects a corrupted copy."""

import copy
import json

import numpy as np
import pytest

import checks
import reference
import worker
from isacdeploy import cli, correlation, music
from isacdeploy.geometry import Deployment, Scenario
from reference import RefScenario
from workloads import read_optimize_artifacts

RADIUS, RESOLUTION = 2.7, 0.5
POPULATION, ELITES, GENERATIONS = 6, 2, 2


@pytest.fixture(scope="module")
def optimize_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("optimize")
    config = out / "config.json"
    config.write_text(json.dumps({
        "scenario": {"region_radius": RADIUS, "grid_resolution": RESOLUTION},
        "ga": {"population_size": POPULATION, "elite_count": ELITES, "max_generations": GENERATIONS},
        "experiment": {"seed": 7},
    }))
    assert cli.main(["optimize", "--config", str(config), "--out", str(out / "run")]) == 0
    return read_optimize_artifacts(out / "run")


def _check_optimize(run, baselines=None):
    ref = RefScenario(radius=RADIUS, resolution=RESOLUTION)
    return checks.check_optimize(run, ref, POPULATION, ELITES, GENERATIONS, baselines or {"a loose bound": 10.0})


def test_optimize_check_passes_real_output(optimize_run):
    assert _check_optimize(optimize_run) == []


def _shift_score(run, delta):
    run["summary"]["best_fitness"] += delta
    generation, value = run["convergence"][-1]
    run["convergence"][-1] = (generation, value + delta)


@pytest.mark.parametrize(
    "corrupt, expected",
    [
        (lambda run: run["poses"].__setitem__(0, (RADIUS * 1.01, 0.0, 1.0)), "outside"),
        (lambda run: run["poses"].__setitem__(1, (0.0, 0.0, 2 * np.pi)), "theta"),
        (lambda run: _shift_score(run, 1e-6), "recomputed"),
        (lambda run: _shift_score(run, -1e-6), "recomputed"),
        (lambda run: run["convergence"].__setitem__(0, (0, -1.0)), "non-increasing"),
        (lambda run: run["convergence"].pop(), "generations"),
        (lambda run: run["summary"].__setitem__("evaluations", 1), "evaluations"),
        (lambda run: run["summary"]["worst_pair"].__setitem__("point_j", run["summary"]["worst_pair"]["point_i"][::-1]), "worst_pair"),
    ],
)
def test_optimize_check_rejects_corruption(optimize_run, corrupt, expected):
    run = copy.deepcopy(optimize_run)
    corrupt(run)
    problems = _check_optimize(run)
    assert any(expected in p for p in problems), problems


def test_optimize_check_rejects_a_baseline_it_does_not_beat(optimize_run):
    best = optimize_run["summary"]["best_fitness"]
    problems = _check_optimize(optimize_run, {"the midpoint baseline": best})
    assert any("does not beat the midpoint baseline" in p for p in problems), problems


@pytest.fixture(scope="module")
def maps():
    ref = RefScenario(radius=RADIUS, resolution=RESOLUTION)
    deployment = Deployment.from_array(reference.random_poses(ref, np.random.default_rng(8)))
    out = {}
    for snr_db in (0.0, 20.0):
        scenario = Scenario(region_radius=RADIUS, grid_resolution=RESOLUTION, snr_db=snr_db)
        out[snr_db] = music.rmse_map(deployment, scenario, 5, np.random.default_rng(9))
    return ref, out


def test_map_check_passes_real_output(maps):
    ref, stats = maps
    for snr_db, s in stats.items():
        assert checks.check_map(s.per_point_rmse, s.max_rmse, ref, snr_db, s.trials_per_point, 5) == []


def test_map_check_rejects_nonzero_rmse_at_plus_20_db(maps):
    ref, stats = maps
    rmse = stats[20.0].per_point_rmse.copy()
    rmse[3] = 0.5
    problems = checks.check_map(rmse, 0.5, ref, 20.0, 5, 5)
    assert any("nonzero RMSE" in p for p in problems), problems
    assert checks.check_map(rmse, 0.5, ref, None, 5, 5) != []


@pytest.mark.parametrize(
    "corrupt, expected",
    [
        (lambda r: r.__setitem__(0, np.nan), "not finite"),
        (lambda r: r.__setitem__(0, 2.5 * RADIUS), "region diameter"),
    ],
)
def test_map_check_rejects_bad_values_at_0_db(maps, corrupt, expected):
    ref, stats = maps
    rmse = stats[0.0].per_point_rmse.copy()
    corrupt(rmse)
    problems = checks.check_map(rmse, float(np.max(rmse)), ref, 0.0, 5, 5)
    assert any(expected in p for p in problems), problems


def test_map_check_rejects_a_wrong_max(maps):
    ref, stats = maps
    s = stats[0.0]
    problems = checks.check_map(s.per_point_rmse, s.max_rmse + 1.0, ref, 0.0, 5, 5)
    assert any("max_rmse" in p for p in problems), problems


def test_exact_share_check():
    rng = np.random.default_rng(10)
    a = rng.random(500) < 0.8
    assert checks.check_exact_share(a, rng.random(500) < 0.8) == []
    assert checks.check_exact_share(a, rng.random(500) < 0.5) != []


@pytest.fixture(scope="module")
def metric_report():
    ref = RefScenario(radius=RADIUS, resolution=RESOLUTION)
    poses = reference.random_poses(ref, np.random.default_rng(11))
    scenario = Scenario(region_radius=RADIUS, grid_resolution=RESOLUTION)
    report = correlation.max_weighted_correlation(correlation.build_codebook(Deployment.from_array(poses), scenario))
    return ref, poses, report


def test_metric_check_passes_real_output(metric_report):
    ref, poses, report = metric_report
    brute = ref.worst_pair(poses)[0]
    assert checks.check_metric(report.max_value, report.arg_pair, ref, poses, brute) == []


@pytest.mark.parametrize("delta", [1e-6, -1e-6])
def test_metric_check_rejects_a_score_off_by_1e_6(metric_report, delta):
    ref, poses, report = metric_report
    brute = ref.worst_pair(poses)[0]
    problems = checks.check_metric(report.max_value + delta, report.arg_pair, ref, poses, brute)
    assert any("brute-force" in p for p in problems), problems
    assert checks.check_metric(report.max_value + delta, report.arg_pair, ref, poses, None) != []


def test_metric_check_rejects_a_bad_pair_or_range(metric_report):
    ref, poses, report = metric_report
    i, j = report.arg_pair
    assert checks.check_metric(report.max_value, (j, i), ref, poses, None) != []
    assert checks.check_metric(report.max_value, (i, len(ref.grid)), ref, poses, None) != []
    other = (i, j + 1) if j + 1 < len(ref.grid) else (i, j - 1)
    assert checks.check_metric(report.max_value, other, ref, poses, None) != []
    upper = (2 * ref.radius) ** ref.alpha
    assert any("outside" in p for p in checks.check_metric(upper * 1.5, report.arg_pair, ref, poses, None))


def test_a_failed_operation_makes_the_run_incorrect():
    outputs = [[{"error": None}, {"error": "exit code 1"}], [{"error": None}, {"error": None}]]
    verdicts = [[[], []], [[], ["a nonzero RMSE at +20 dB"]]]
    attempted, failed, problems = worker.tally(outputs, verdicts)
    assert (attempted, failed) == (4, 2)
    assert problems == ["round 0 operation 1: failed: exit code 1", "round 1 operation 1: a nonzero RMSE at +20 dB"]
