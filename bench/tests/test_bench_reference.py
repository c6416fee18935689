"""The independent references agree with the program on tiny scenarios."""

import numpy as np
import pytest

import reference
from checks import check_exact_share
from isacdeploy import correlation, music
from isacdeploy.geometry import Deployment, Scenario, coverage_grid, deployment_layout, midpoint_baseline, steering_matrix
from reference import RefScenario

RADIUS, RESOLUTION = 2.7, 0.5


@pytest.fixture
def tiny():
    return RefScenario(radius=RADIUS, resolution=RESOLUTION), Scenario(region_radius=RADIUS, grid_resolution=RESOLUTION)


def test_grid_and_steering_match_the_program(tiny):
    ref, scenario = tiny
    poses = reference.random_poses(ref, np.random.default_rng(0))
    grid = coverage_grid(scenario.region_center, scenario.region_radius, scenario.grid_resolution)
    np.testing.assert_array_equal(ref.grid, grid)
    program = steering_matrix(deployment_layout(Deployment.from_array(poses), scenario), grid, scenario.wavelength)
    np.testing.assert_allclose(ref.steering(poses), program, rtol=0, atol=1e-12)


def test_midpoint_matches_the_program():
    np.testing.assert_allclose(reference.midpoint_poses(RefScenario()), midpoint_baseline(Scenario()).as_array(), atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_block_wise_worst_pair_matches_the_program(tiny, seed):
    ref, scenario = tiny
    poses = reference.random_poses(ref, np.random.default_rng(seed))
    report = correlation.max_weighted_correlation(correlation.build_codebook(Deployment.from_array(poses), scenario))
    value, pair = ref.worst_pair(poses, block=7)
    assert value == pytest.approx(report.max_value, rel=1e-12)
    assert pair == report.arg_pair
    assert ref.pair_value(poses, ref.grid[pair[0]], ref.grid[pair[1]]) == pytest.approx(value, rel=1e-12)


def test_random_poses_lie_in_the_region():
    ref = RefScenario()
    poses = np.array([reference.random_poses(ref, np.random.default_rng(1)) for _ in range(50)]).reshape(-1, 3)
    assert np.all(np.hypot(poses[:, 0], poses[:, 1]) <= ref.radius)
    assert np.all((poses[:, 2] >= 0) & (poses[:, 2] < 2 * np.pi))


def test_music_reference_localizes_like_the_program(tiny):
    """Same covariance in, same grid point out: the reference's pseudo-spectrum
    argmax and the program's projected-power argmin pick the same point."""
    ref, scenario = tiny
    poses = reference.random_poses(ref, np.random.default_rng(2))
    codebook = correlation.build_codebook(Deployment.from_array(poses), scenario)
    steering = ref.steering(poses)
    rng = np.random.default_rng(3)
    m, n = steering.shape
    for i in rng.choice(n, 10, replace=False):
        y = steering[:, [i]] * (rng.standard_normal((1, 50)) + 1j * rng.standard_normal((1, 50)))
        y = y + 0.3 * (rng.standard_normal((m, 50)) + 1j * rng.standard_normal((m, 50)))
        cov = y @ y.conj().T / 50
        cov = 0.5 * (cov + cov.conj().T)
        _, vectors = np.linalg.eigh(cov)
        projected = vectors[:, : m - 1].conj().T @ steering
        estimate = int(np.argmax(1.0 / np.sum(np.abs(projected) ** 2, axis=0)))
        np.testing.assert_array_equal(ref.grid[estimate], music.localize(cov, codebook))


@pytest.mark.parametrize("snr_db", [-5.0, 20.0])
def test_music_reference_share_agrees_with_rmse_map(tiny, snr_db):
    ref, scenario = tiny
    poses = reference.random_poses(ref, np.random.default_rng(4))
    stats = music.rmse_map(
        Deployment.from_array(poses), Scenario(region_radius=RADIUS, grid_resolution=RESOLUTION, snr_db=snr_db),
        10, np.random.default_rng(5),
    )
    exact = reference.music_exact(ref.steering(poses), snr_db, ref.snapshots, 10, np.random.default_rng(6))
    assert check_exact_share(stats.per_point_rmse == 0.0, exact) == []
    if snr_db >= 20.0:
        assert exact.all()
