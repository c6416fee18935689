"""Every scalar argument of the library passes one number gate
(`isacdeploy.validation`): a bool, a string, None, NaN, an infinity or an
integer beyond the float range, and a fraction where a count is due, raise a
ValueError that names the argument, never a TypeError or an OverflowError,
and are never accepted."""

import math
import re

import numpy as np
import pytest

from isacdeploy.config import ExperimentSettings, parse_config, parse_deployment
from isacdeploy.correlation import frobenius_separability, weight_slabs, weighted_correlation
from isacdeploy.ga import GaParams, polynomial_mutation, sbx_crossover, tournament_select
from isacdeploy.geometry import Scenario, coverage_grid, midpoint_baseline, steering_matrix, wavelength_of
from isacdeploy.music import LocalizationStats, rmse_map
from isacdeploy.signals import PowerLevels, complex_normal, generate_snapshots, snr_to_powers

SMALL = Scenario(region_radius=2.0, snapshot_count=4)
UNIT = np.array([1.0, 0.0], dtype=complex)
LAYOUT = np.array([[0.0, 0.0], [0.0, 0.06]])
POSES = midpoint_baseline(SMALL).poses


def _rng():
    return np.random.default_rng(0)


# (argument name, call with the value in that argument's place); counts also refuse 2.5
REAL = [
    ("carrier_frequency", lambda v: wavelength_of(v)),
    ("carrier_frequency", lambda v: Scenario(carrier_frequency=v)),
    ("region_radius", lambda v: Scenario(region_radius=v)),
    ("grid_resolution", lambda v: Scenario(grid_resolution=v)),
    ("snr_db", lambda v: Scenario(snr_db=v)),
    ("alpha", lambda v: Scenario(alpha=v)),
    ("region_center", lambda v: Scenario(region_center=v)),
    ("region_center[0]", lambda v: Scenario(region_center=(v, 0.0))),
    ("region_center[1]", lambda v: Scenario(region_center=(0.0, v))),
    ("element_spacing", lambda v: Scenario(element_spacing=v)),
    ("wavelength", lambda v: steering_matrix(LAYOUT, [[1.0, 1.0]], v)),
    ("radius", lambda v: coverage_grid((0.0, 0.0), v, 1.0)),
    ("resolution", lambda v: coverage_grid((0.0, 0.0), 2.0, v)),
    ("signal_power", lambda v: PowerLevels(v, 1.0)),
    ("noise_power", lambda v: PowerLevels(1.0, v)),
    ("snr_db", lambda v: snr_to_powers(v)),
    ("variance", lambda v: complex_normal(_rng(), (4,), v)),
    ("alpha", lambda v: weight_slabs([[0.0, 0.0], [1.0, 0.0]], v)),
    ("distance", lambda v: weighted_correlation(UNIT, UNIT, v, 0.05)),
    ("alpha", lambda v: weighted_correlation(UNIT, UNIT, 1.0, v)),
    ("source_power", lambda v: frobenius_separability(UNIT, UNIT, v)),
    ("crossover_probability", lambda v: GaParams(crossover_probability=v)),
    ("mutation_probability", lambda v: GaParams(mutation_probability=v)),
    ("eta_crossover", lambda v: GaParams(eta_crossover=v)),
    ("eta_mutation", lambda v: GaParams(eta_mutation=v)),
    ("eta_c", lambda v: sbx_crossover(POSES, POSES, v, 1.0, _rng())),
    ("p_c", lambda v: sbx_crossover(POSES, POSES, 15.0, v, _rng())),
    ("eta_m", lambda v: polynomial_mutation(POSES, v, 1.0, SMALL, _rng())),
    ("p_m", lambda v: polynomial_mutation(POSES, 20.0, v, SMALL, _rng())),
    ("alpha_values[0]", lambda v: ExperimentSettings(kind="alpha-sweep", alpha_values=(v,))),
    ("snr_values_db[0]", lambda v: ExperimentSettings(kind="snr-sweep", snr_values_db=(v,))),
    ("poses[0].x", lambda v: parse_deployment({"poses": [{"x": v, "y": 0, "theta": 0}]})),
    ("region_radius", lambda v: parse_config({"scenario": {"region_radius": v}}, "optimize")),
]
COUNT = [
    ("antennas_per_node", lambda v: Scenario(antennas_per_node=v)),
    ("node_count", lambda v: Scenario(node_count=v)),
    ("snapshot_count", lambda v: Scenario(snapshot_count=v)),
    ("n_snapshots", lambda v: generate_snapshots(UNIT, PowerLevels(1.0, 1.0), v, _rng())),
    ("trials", lambda v: generate_snapshots(UNIT, PowerLevels(1.0, 1.0), 4, _rng(), trials=v)),
    ("population_size", lambda v: GaParams(population_size=v)),
    ("elite_count", lambda v: GaParams(elite_count=v)),
    ("tournament_size", lambda v: GaParams(tournament_size=v)),
    ("max_generations", lambda v: GaParams(max_generations=v)),
    ("k", lambda v: tournament_select([0.5, 0.25], v, _rng())),
    ("trials", lambda v: rmse_map(midpoint_baseline(SMALL), SMALL, v, _rng())),
    ("threads", lambda v: rmse_map(midpoint_baseline(SMALL), SMALL, 1, _rng(), threads=v)),
    ("random_deployment_count", lambda v: ExperimentSettings(kind="montecarlo", random_deployment_count=v)),
    ("trials_per_point", lambda v: ExperimentSettings(kind="montecarlo", trials_per_point=v)),
    ("node_counts[0]", lambda v: ExperimentSettings(kind="node-sweep", node_counts=(v,))),
    ("trials_per_point", lambda v: LocalizationStats(np.zeros(2), v)),
]
BAD = {"True": True, "'5'": "5", "None": None, "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "10**400": 10**400}
# None selects a default here, not a bad value
NONE_MEANS_DEFAULT = {"element_spacing", "trials"}

CASES = [
    pytest.param(name, call, value, id=f"{name}-{index}-{label}")
    for group, extra in ((REAL, {}), (COUNT, {"2.5": 2.5}))
    for index, (name, call) in enumerate(group)
    for label, value in {**BAD, **extra}.items()
    if not (value is None and name in NONE_MEANS_DEFAULT)
]


@pytest.mark.parametrize("name, call, value", CASES)
def test_a_bad_number_is_a_value_error_naming_its_argument(name, call, value):
    with pytest.raises(ValueError, match=re.escape(name)):
        call(value)


def test_good_values_pass_the_gate_unchanged():
    scenario = Scenario(region_radius=4, carrier_frequency=10**300, region_center=(1, 2))
    assert type(scenario.region_radius) is int and scenario.region_radius == 4
    assert type(scenario.carrier_frequency) is int
    assert scenario.region_center == (1.0, 2.0)
    assert Scenario(snapshot_count=8.0).snapshot_count == 8
    assert generate_snapshots(UNIT, PowerLevels(1, 0), 4.0, _rng(), trials=2.0).shape == (2, 2, 4)
    assert tournament_select([0.5, 0.25], 3.0, _rng()) in (0, 1)
    assert rmse_map(midpoint_baseline(SMALL), SMALL, 1.0, _rng(), threads=1.0).trials_per_point == 1
    stats = LocalizationStats(np.zeros(2), 3.0)
    assert type(stats.trials_per_point) is int and stats.trials_per_point == 3


def test_an_integer_beyond_the_float_range_is_reported_by_its_digit_count():
    for digits in (310, 400, 5001):
        with pytest.raises(ValueError, match=rf"^alpha: expected a number within the float range, got a {digits}-digit"):
            Scenario(alpha=10 ** (digits - 1))
    with pytest.raises(ValueError, match=r"got a 400-digit integer"):
        Scenario(alpha=-(10**400 - 1))
