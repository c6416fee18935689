"""The tracer counts what the program does and leaves it as it found it."""

import numpy as np

import reference
import spans
from isacdeploy import correlation, ga, music
from isacdeploy.geometry import Deployment, Scenario
from reference import RefScenario

RADIUS, RESOLUTION = 2.7, 0.5


def test_every_hook_exists_and_is_restored():
    originals = {h.span: getattr(__import__(h.module, fromlist=["_"]), h.function) for h in spans.HOOKS}
    tracer = spans.Tracer()
    tracer.start()
    try:
        assert tracer.missing == []
        assert correlation.build_codebook is not originals["correlation.codebook"]
        assert music.build_codebook is correlation.build_codebook
    finally:
        tracer.stop()
    assert correlation.build_codebook is originals["correlation.codebook"]
    assert ga.fitness is originals["ga.fitness"]
    assert music.build_codebook is originals["correlation.codebook"]


def test_metric_counts_and_memory():
    ref = RefScenario(radius=RADIUS, resolution=RESOLUTION)
    scenario = Scenario(region_radius=RADIUS, grid_resolution=RESOLUTION)
    deployment = Deployment.from_array(reference.random_poses(ref, np.random.default_rng(0)))
    tracer = spans.Tracer(memory=True)
    tracer.start()
    try:
        correlation.max_weighted_correlation(correlation.build_codebook(deployment, scenario))
    finally:
        tracer.stop()
    values = tracer.metrics()
    n = len(ref.grid)
    assert values["geometry.steering_calls"] == 1
    assert values["geometry.steering_columns"] == n
    assert values["correlation.metric_calls"] == 1
    assert values["correlation.pairs_scored"] == n * (n - 1) // 2
    assert values["correlation.metric_peak_mb"] > 0
    assert values["correlation.codebook_s"] >= values["geometry.steering_s"] > 0


def test_ga_and_music_counts():
    scenario = Scenario(region_radius=RADIUS, grid_resolution=RESOLUTION)
    params = ga.GaParams(population_size=6, elite_count=2, max_generations=3)
    deployment = Deployment.from_array(reference.random_poses(RefScenario(), np.random.default_rng(1)) * [0.2, 0.2, 1.0])
    tracer = spans.Tracer()
    tracer.start()
    try:
        result = ga.run_ga(scenario, params, np.random.default_rng(2))
        stats = music.rmse_map(deployment, scenario, 3, np.random.default_rng(3))
    finally:
        tracer.stop()
    values = tracer.metrics()
    assert values["ga.generations"] == 3
    assert values["ga.evaluations"] == result.evaluations == 6 + 3 * 4
    assert 0 <= values["ga.repeat_evaluations"] < values["ga.evaluations"]
    n = stats.per_point_rmse.size
    assert values["music.rmse_map_calls"] == 1
    assert values["music.localizations"] == n * 3
    assert values["signals.normal_calls"] == 2 * n
    assert values["signals.normals_drawn"] == 2 * n * (3 * 200 + 3 * 12 * 200)
    assert values["music.rmse_map_s"] >= values["signals.normal_s"] > 0


def test_a_missing_function_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(spans, "HOOKS", spans.HOOKS + (spans.Hook("ga.gone", "isacdeploy.ga", "no_such_function"),))
    tracer = spans.Tracer()
    tracer.start()
    tracer.stop()
    assert tracer.missing == ["isacdeploy.ga.no_such_function"]
    assert tracer.metrics()["trace.missing_hooks"] == 1
