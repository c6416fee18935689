"""Subspace localizer tests.

Exactness cases (population covariance, noiseless snapshots, a known
diagonal spectrum) pin the eigenstructure handling; seeded Monte Carlo cases
pin the statistical behavior at high SNR. The (M - 1)-vector noise-subspace
projection that the rank-one kernel replaced is kept below as the reference:
`rmse_map` must match it bit for bit.
"""

import os
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from isacdeploy.correlation import GridCodebook, build_codebook, weight_slabs
from isacdeploy.geometry import (
    Deployment,
    Scenario,
    deployment_layout,
    midpoint_baseline,
    random_deployment,
    steering_vector,
)
from isacdeploy import music
from isacdeploy.music import LocalizationStats, _localize_indices, _point_rmse, localize, rmse_map, rmse_maps
from isacdeploy.signals import PowerLevels, SnapshotWorkspace, generate_snapshots, sample_covariance, snr_to_powers


def population_covariance(a, signal_power, noise_power):
    return signal_power * np.outer(a, a.conj()) + noise_power * np.eye(a.size)


def reference_complex_normal(rng, shape, variance):
    """`complex_normal` assembled through complex temporaries instead of in place."""
    if variance == 0.0:
        return np.zeros(shape, dtype=complex)
    parts = rng.standard_normal((2,) + shape)
    return np.sqrt(variance / 2.0) * (parts[0] + 1j * parts[1])


def eigh_indices(covs, steering):
    """The full-eigendecomposition kernel: argmax of |u1^H a|^2 with u1 the last `eigh` vector."""
    _, vectors = np.linalg.eigh(covs)
    inner = vectors[..., -1].conj() @ steering
    return np.argmax(inner.real**2 + inner.imag**2, axis=-1)


def projected_power(covs, steering):
    """Power of every steering column in the span of the M - 1 smallest eigenvectors, (..., n)."""
    _, vectors = np.linalg.eigh(covs)
    bases = vectors[..., : steering.shape[0] - 1]
    projections = bases.conj().swapaxes(-1, -2) @ steering
    return np.sum(projections.real**2 + projections.imag**2, axis=-2)


def reference_point_rmse(codebook, index, snapshots, trials, powers, rng):
    """Per-point RMSE by the (M - 1)-vector projection argmin, with its own snapshot code."""
    m = codebook.steering.shape[0]
    a = codebook.steering[:, index]
    sources = reference_complex_normal(rng, (trials, snapshots), powers.signal_power)
    noise = reference_complex_normal(rng, (trials, m, snapshots), powers.noise_power)
    batch = a[np.newaxis, :, np.newaxis] * sources[:, np.newaxis, :] + noise
    covs = batch @ batch.conj().transpose(0, 2, 1) / snapshots
    covs = 0.5 * (covs + covs.conj().transpose(0, 2, 1))
    estimates = np.argmin(projected_power(covs, codebook.steering), axis=1)
    squared_error = np.sum((codebook.grid[estimates] - codebook.grid[index]) ** 2, axis=1)
    return float(np.sqrt(np.mean(squared_error)))


def reference_rmse_map(deployment, scenario, trials, rng, powers):
    codebook = build_codebook(deployment, scenario)
    streams = rng.spawn(len(codebook.grid))
    return np.array(
        [
            reference_point_rmse(codebook, i, scenario.snapshot_count, trials, powers, stream)
            for i, stream in enumerate(streams)
        ]
    )


@pytest.fixture(scope="module")
def small_scenario():
    return Scenario(region_radius=4.0)


@pytest.fixture(scope="module")
def baseline_book(small_scenario):
    return build_codebook(midpoint_baseline(small_scenario), small_scenario)


def reversed_book(book):
    """The same codebook with its grid order reversed, so index ties break the other way.

    A reversed grid has its own weight slabs; those of the forward grid do not reverse into them.
    """
    grid = book.grid[::-1]
    return GridCodebook(grid, book.steering[:, ::-1], weight_slabs(grid, Scenario().alpha))


# ---------------------------------------------------------------- subspace


class TestNoiseSubspace:
    """With one source the noise subspace is the complement of the principal
    eigenvector u1; these cases reach it through `localize`."""

    def test_population_covariance_orthogonal_to_steering(self, baseline_book):
        for true_index in range(len(baseline_book.grid)):
            a = baseline_book.steering[:, true_index]
            estimate = localize(population_covariance(a, 10.0, 1.0), baseline_book)
            assert np.array_equal(estimate, baseline_book.grid[true_index])

    def test_known_diagonal_spectrum_selects_principal_axis(self):
        cov = np.diag([0.1, 5.0, 0.2, 3.0]).astype(complex)
        mixed = np.array([0.0, 1.0, 0.0, 1.0]) / np.sqrt(2.0)
        steering = np.column_stack([np.eye(4), mixed]).astype(complex)
        grid = np.arange(10.0).reshape(5, 2)
        book = GridCodebook(grid, steering, weight_slabs(grid, 0.05))
        assert np.array_equal(localize(cov, book), grid[1])
        assert np.array_equal(localize(cov, reversed_book(book)), grid[1])

    def test_high_snr_sample_covariance_aligns(self, baseline_book):
        rng = np.random.default_rng(42)
        a = baseline_book.steering[:, 11]
        batch = generate_snapshots(a, snr_to_powers(30.0), 200, rng)
        assert np.array_equal(localize(sample_covariance(batch), baseline_book), baseline_book.grid[11])

    def test_eigendecomposition_reconstructs(self):
        rng = np.random.default_rng(43)
        w = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        cov = w @ w.conj().T
        vals, vecs = np.linalg.eigh(cov)
        recon = (vecs * vals) @ vecs.conj().T
        assert np.linalg.norm(recon - cov) <= 1e-8 * np.linalg.norm(cov)

    def test_rejects_bad_inputs(self, baseline_book):
        with pytest.raises(ValueError, match="finite"):
            localize(np.full((12, 12), np.nan), baseline_book)
        with pytest.raises(ValueError, match="Hermitian"):
            localize(np.arange(144.0).reshape(12, 12), baseline_book)
        with pytest.raises(ValueError, match="square"):
            localize(np.eye(12)[:, :11], baseline_book)


# ---------------------------------------------------------------- scores


class TestMusicScores:
    """The rank-one score |u1^H a|^2 against the projected noise power it replaces."""

    def test_population_covariance_true_point_is_strict_minimum(self, baseline_book):
        # the true point must win with ties broken both ways
        true_index = 17
        cov = population_covariance(baseline_book.steering[:, true_index], 1.0, 1.0)
        assert np.array_equal(localize(cov, baseline_book), baseline_book.grid[true_index])
        assert np.array_equal(localize(cov, reversed_book(baseline_book)), baseline_book.grid[true_index])

    def test_scores_within_projection_bounds(self, baseline_book):
        # one source, unit-norm steering: projected power = 1 - |u1^H a|^2
        rng = np.random.default_rng(44)
        steering = baseline_book.steering
        for snr_db in (-10.0, 0.0, 20.0):
            batch = generate_snapshots(steering[:, 3], snr_to_powers(snr_db), 50, rng, trials=20)
            covs = sample_covariance(batch)
            _, vectors = np.linalg.eigh(covs)
            rank_one = 1.0 - np.abs(vectors[..., -1].conj() @ steering) ** 2
            projected = projected_power(covs, steering)
            assert np.all(projected >= 0.0) and np.all(projected <= 1.0 + 1e-12)
            assert np.max(np.abs(rank_one - projected)) <= 1e-12

    def test_rejects_dimension_mismatch(self, baseline_book):
        with pytest.raises(ValueError, match="dimension"):
            localize(np.eye(6), baseline_book)


# ---------------------------------------------------------------- localize


class TestLocalize:
    def test_noiseless_batch_recovers_exact_grid_point(self, small_scenario, baseline_book):
        rng = np.random.default_rng(45)
        for true_index in (0, 9, 24, 48):
            a = baseline_book.steering[:, true_index]
            batch = generate_snapshots(a, PowerLevels(1.0, 0.0), 8, rng)
            estimate = localize(sample_covariance(batch), baseline_book)
            assert np.array_equal(estimate, baseline_book.grid[true_index])

    def test_high_snr_monte_carlo_accuracy(self):
        scenario = Scenario(snr_db=30.0)
        book = build_codebook(midpoint_baseline(scenario), scenario)
        true_index = int(np.flatnonzero((book.grid == (1.0, 2.0)).all(axis=1))[0])
        a = book.steering[:, true_index]
        powers = snr_to_powers(scenario.snr_db)
        rng = np.random.default_rng(46)
        hits = 0
        trials = 200
        for _ in range(trials):
            batch = generate_snapshots(a, powers, scenario.snapshot_count, rng)
            if np.array_equal(localize(sample_covariance(batch), book), book.grid[true_index]):
                hits += 1
        assert hits >= 0.99 * trials

    def test_mirror_symmetric_deployment_ambiguity(self):
        # all arrays collinear on the x-axis: steering is even in y, so the
        # true point and its mirror tie exactly; argmin takes the lower index
        scenario = Scenario(region_radius=4.0)
        dep = Deployment([[-2.0, 0.0, 0.0], [0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        book = build_codebook(dep, scenario)
        layout = deployment_layout(dep, scenario)
        a_true = steering_vector(layout, (1.0, 2.0), scenario.wavelength)
        estimate = localize(population_covariance(a_true, 5.0, 1.0), book)
        assert tuple(estimate) in {(1.0, 2.0), (1.0, -2.0)}
        assert tuple(estimate) == (1.0, -2.0)  # lowest-grid-index tie break

    def test_rejects_grid_codebook_mismatch(self, baseline_book):
        with pytest.raises(ValueError):
            localize(np.eye(9), baseline_book)

    def test_rank_one_argmax_matches_the_projection_argmin(self, small_scenario):
        rng = np.random.default_rng(55)
        for deployment in (midpoint_baseline(small_scenario), random_deployment(small_scenario, rng)):
            book = build_codebook(deployment, small_scenario)
            for snr_db in (-10.0, -5.0, 0.0, 20.0):
                for true_index in rng.choice(len(book.grid), 4, replace=False):
                    batch = generate_snapshots(book.steering[:, true_index], snr_to_powers(snr_db), 200, rng, trials=25)
                    covs = sample_covariance(batch)
                    want = np.argmin(projected_power(covs, book.steering), axis=-1)
                    assert np.array_equal(_localize_indices(covs, book.steering), want)


class TestInverseIteration:
    """`_localize_indices` finds u1 by one shifted solve; it must pick the index the
    full `eigh` kernel picks on every kind of covariance `localize` accepts."""

    def test_noiseless_rank_one_stacks(self, baseline_book):
        rng = np.random.default_rng(70)
        for true_index in (0, 13, 30, 48):
            a = baseline_book.steering[:, true_index]
            for powers in (PowerLevels(1.0, 0.0), PowerLevels(1e-300, 0.0), PowerLevels(1e280, 0.0)):
                covs = sample_covariance(generate_snapshots(a, powers, 16, rng, trials=10))
                got = _localize_indices(covs, baseline_book.steering)
                assert np.array_equal(got, eigh_indices(covs, baseline_book.steering))
                assert np.all(got == true_index)

    def test_population_covariances_with_a_repeated_noise_eigenvalue(self, baseline_book):
        steering = baseline_book.steering
        for signal_power in (0.01, 1.0, 100.0):
            covs = np.array([population_covariance(a, signal_power, 1.0) for a in steering.T])
            got = _localize_indices(covs, steering)
            assert np.array_equal(got, eigh_indices(covs, steering))
            assert np.array_equal(got, np.arange(steering.shape[1]))

    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 20.0])
    def test_sample_stacks(self, small_scenario, snr_db):
        rng = np.random.default_rng(71)
        for deployment in (midpoint_baseline(small_scenario), random_deployment(small_scenario, rng)):
            book = build_codebook(deployment, small_scenario)
            for true_index in rng.choice(len(book.grid), 6, replace=False):
                batch = generate_snapshots(book.steering[:, true_index], snr_to_powers(snr_db), 50, rng, trials=50)
                covs = sample_covariance(batch)
                assert np.array_equal(_localize_indices(covs, book.steering), eigh_indices(covs, book.steering))

    def test_a_repeated_top_eigenvalue_takes_eighs_vector(self, baseline_book):
        # R = 0 (both powers zero) and R = cI have no principal direction; both kernels take e_M
        # (scaled by 2^44 here, exactly, so the scores round alike: they tie up to rounding)
        steering = baseline_book.steering
        covs = np.array([np.zeros((12, 12)), 3.0 * np.eye(12)], dtype=complex)
        assert np.array_equal(_localize_indices(covs, steering), eigh_indices(covs, steering))
        assert np.array_equal(localize(np.zeros((12, 12)), baseline_book), baseline_book.grid[eigh_indices(covs[0], steering)])

    def test_a_map_of_a_target_that_sends_nothing_is_refused(self, small_scenario):
        # with no signal power every covariance holds noise alone, so the map would measure nothing
        deployment = midpoint_baseline(small_scenario)
        for powers in (PowerLevels(0.0, 0.0), PowerLevels(0.0, 1.0)):
            with pytest.raises(ValueError, match=r"powers\.signal_power must be > 0"):
                rmse_map(deployment, small_scenario, 2, np.random.default_rng(72), powers=powers)
            with pytest.raises(ValueError, match=r"powers\.signal_power must be > 0"):
                rmse_maps([deployment, deployment], small_scenario, 2, np.random.default_rng(72), powers=powers)

    def test_a_negative_definite_matrix(self, baseline_book):
        rng = np.random.default_rng(73)
        for _ in range(10):
            w = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
            cov = -(w @ w.conj().T) - np.eye(12)
            cov = 0.5 * (cov + cov.conj().T)
            assert np.all(np.linalg.eigvalsh(cov) < 0.0)
            want = baseline_book.grid[eigh_indices(cov, baseline_book.steering)]
            assert np.array_equal(localize(cov, baseline_book), want)

    def test_u1_orthogonal_to_the_ones_vector_and_to_the_largest_diagonal(self, baseline_book):
        # u1 = (e0 - e1)/sqrt(2): a start at the all-ones vector, or at the coordinate of
        # R's largest diagonal entry (e2, eigenvalue 1.9), has no u1 component
        u1 = np.zeros(12, dtype=complex)
        u1[[0, 1]] = 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0)
        e2 = np.eye(12, dtype=complex)[2]
        cov = 2.0 * np.outer(u1, u1.conj()) + 1.9 * np.outer(e2, e2) + 0.01 * np.eye(12)
        assert np.sum(u1) == 0.0 and np.argmax(np.diag(cov).real) == 2
        steering = np.column_stack([e2, u1, (e2 + u1) / np.sqrt(2.0), baseline_book.steering[:, :5]])
        assert _localize_indices(cov, steering) == eigh_indices(cov, steering) == 1
        # the same spectrum rotated onto the reference steering
        q, _ = np.linalg.qr(baseline_book.steering[:, [4, 9, 22]])
        rotated = q @ cov[:3, :3] @ q.conj().T + 0.01 * np.eye(12)
        assert np.array_equal(_localize_indices(rotated, baseline_book.steering), eigh_indices(rotated, baseline_book.steering))

    def test_any_scale_gives_the_same_index(self, baseline_book):
        cov = population_covariance(baseline_book.steering[:, 21], 3.0, 1.0)
        covs = np.array([cov * 2.0**k for k in (-1000, -500, -1, 0, 1, 500, 1000)])
        assert np.all(_localize_indices(covs, baseline_book.steering) == 21)

    def test_localize_passes_an_exactly_hermitian_matrix(self, baseline_book, monkeypatch):
        # Hermitian only to within the 1e-10 tolerance: eigvalsh reads one triangle and the
        # solve reads both, so the kernel must get the Hermitian average
        seen = []
        kernel = music._localize_indices
        monkeypatch.setattr(music, "_localize_indices", lambda covs, steering: seen.append(covs) or kernel(covs, steering))
        rng = np.random.default_rng(74)
        cov = population_covariance(baseline_book.steering[:, 8], 1.0, 1.0)
        perturbed = cov + 1e-11 * (rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
        assert not np.array_equal(perturbed, perturbed.conj().T)
        estimate = localize(perturbed, baseline_book)
        assert np.array_equal(seen[0], seen[0].conj().T)
        assert np.array_equal(seen[0], 0.5 * (perturbed + perturbed.conj().T))
        assert np.array_equal(estimate, baseline_book.grid[8])
        # entries above half the largest float: the average must not overflow
        huge = np.diag(np.full(12, 1.7e308)).astype(complex)
        huge[3, 3] = 1e308
        assert np.array_equal(localize(huge, baseline_book), baseline_book.grid[eigh_indices(huge, baseline_book.steering)])

    def test_no_map_calls_eigh(self, small_scenario, monkeypatch):
        def no_eigh(*args, **kwargs):
            raise AssertionError("the Monte Carlo must not run a full eigendecomposition")

        want = rmse_map(midpoint_baseline(small_scenario), small_scenario, 3, np.random.default_rng(75))
        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        got = rmse_map(midpoint_baseline(small_scenario), small_scenario, 3, np.random.default_rng(75))
        assert np.array_equal(got.per_point_rmse, want.per_point_rmse)


# ---------------------------------------------------------------- rmse map


class TestRmseMap:
    def test_noiseless_map_is_zero(self, small_scenario):
        dep = midpoint_baseline(small_scenario)
        stats = rmse_map(dep, small_scenario, 2, np.random.default_rng(47), powers=PowerLevels(1.0, 0.0))
        assert stats.max_rmse == 0.0
        assert np.array_equal(stats.per_point_rmse, np.zeros(len(stats.per_point_rmse)))
        assert stats.trials_per_point == 2

    def test_reproducible_and_seed_sensitive(self, small_scenario):
        dep = midpoint_baseline(small_scenario)
        first = rmse_map(dep, small_scenario, 3, np.random.default_rng(48))
        second = rmse_map(dep, small_scenario, 3, np.random.default_rng(48))
        third = rmse_map(dep, small_scenario, 3, np.random.default_rng(49))
        assert np.array_equal(first.per_point_rmse, second.per_point_rmse)
        assert first.max_rmse == second.max_rmse
        assert not np.array_equal(first.per_point_rmse, third.per_point_rmse)

    def test_threaded_map_matches_serial(self, small_scenario):
        dep = midpoint_baseline(small_scenario)
        serial = rmse_map(dep, small_scenario, 3, np.random.default_rng(50))
        threaded = rmse_map(dep, small_scenario, 3, np.random.default_rng(50), threads=4)
        assert np.array_equal(serial.per_point_rmse, threaded.per_point_rmse)

    @pytest.mark.parametrize("threads", [2, 4])
    def test_threaded_reference_map_matches_serial(self, monkeypatch, threads):
        # workers on the reference scenario, each drawing into its own workspace;
        # a short switch interval makes threads interleave inside the kernel
        monkeypatch.setattr(os, "cpu_count", lambda: threads)
        scenario = Scenario()
        dep = midpoint_baseline(scenario)
        serial = rmse_map(dep, scenario, 3, np.random.default_rng(59))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = rmse_map(dep, scenario, 3, np.random.default_rng(59), threads=threads)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(serial.per_point_rmse, threaded.per_point_rmse)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_workspace_per_worker_thread(self, small_scenario, monkeypatch, threads):
        made = []

        class CountedWorkspace(SnapshotWorkspace):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(music, "SnapshotWorkspace", CountedWorkspace)
        stats = rmse_map(midpoint_baseline(small_scenario), small_scenario, 3, np.random.default_rng(60), threads=threads)
        assert 1 <= len(made) <= threads < stats.per_point_rmse.size

    @pytest.mark.parametrize("powers", [snr_to_powers(0.0), PowerLevels(1.0, 0.0)], ids=["noisy", "noiseless"])
    def test_a_stale_workspace_gives_the_fresh_value(self, baseline_book, small_scenario, powers):
        m, t = baseline_book.steering.shape[0], small_scenario.snapshot_count
        stale = SnapshotWorkspace(4, m, t)
        for buffer in (stale.noise, stale.sources):
            buffer.fill(np.nan)
        books = [baseline_book, reversed_book(baseline_book)]
        for index in (0, 17, 30):
            fresh = _point_rmse(books, index, powers, np.random.default_rng(index), SnapshotWorkspace(4, m, t))
            assert np.array_equal(_point_rmse(books, index, powers, np.random.default_rng(index), stale), fresh)

    def test_pool_never_exceeds_the_core_count(self, small_scenario, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-core machine must not start a thread pool")

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(music, "ThreadPoolExecutor", no_pool)
        dep = midpoint_baseline(small_scenario)
        serial = rmse_map(dep, small_scenario, 3, np.random.default_rng(50))
        capped = rmse_map(dep, small_scenario, 3, np.random.default_rng(50), threads=64)
        assert np.array_equal(serial.per_point_rmse, capped.per_point_rmse)

    def test_error_bounded_by_grid_diameter(self, small_scenario):
        dep = random_deployment(small_scenario, np.random.default_rng(51))
        stats = rmse_map(dep, small_scenario, 2, np.random.default_rng(52))
        assert np.all(stats.per_point_rmse >= 0.0)
        assert np.all(stats.per_point_rmse <= 2.0 * small_scenario.region_radius + 1e-9)
        assert stats.max_rmse == np.max(stats.per_point_rmse)

    def test_high_snr_beats_low_snr(self):
        # common random numbers: identical seeds isolate the SNR effect
        dep = midpoint_baseline(Scenario(region_radius=4.0))
        low = rmse_map(dep, Scenario(region_radius=4.0, snr_db=-10.0), 5, np.random.default_rng(53))
        high = rmse_map(dep, Scenario(region_radius=4.0, snr_db=20.0), 5, np.random.default_rng(53))
        assert high.max_rmse < low.max_rmse

    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 20.0, None])
    def test_matches_the_projection_reference_bit_for_bit(self, small_scenario, snr_db):
        scenario = small_scenario if snr_db is None else Scenario(region_radius=4.0, snr_db=snr_db)
        powers = PowerLevels(1.0, 0.0) if snr_db is None else snr_to_powers(snr_db)
        layouts = (midpoint_baseline(scenario), random_deployment(scenario, np.random.default_rng(56)))
        for deployment in layouts:
            stats = rmse_map(deployment, scenario, 20, np.random.default_rng(57), powers=powers)
            want = reference_rmse_map(deployment, scenario, 20, np.random.default_rng(57), powers)
            assert np.array_equal(stats.per_point_rmse, want)

    @pytest.mark.parametrize("codebooks", [1, 10])
    def test_one_1000_trial_point_peak_memory(self, codebooks):
        # the (trials, M, T) noise block dominates a point's memory; the draws go straight into
        # its float halves, and each deployment adds only its (trials, M, M) assembly,
        # eigenvalues and inverse, so the peak does not grow with the ensemble
        scenario = Scenario()
        rng = np.random.default_rng(59)
        deployments = [midpoint_baseline(scenario)] + [random_deployment(scenario, rng) for _ in range(codebooks - 1)]
        books = [build_codebook(deployment, scenario) for deployment in deployments]
        trials, (m, _), t = 1000, books[0].steering.shape, scenario.snapshot_count
        block = trials * m * t * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            _point_rmse(books, 100, snr_to_powers(0.0), np.random.default_rng(58), SnapshotWorkspace(trials, m, t))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * block, f"peak {peak / 2**20:.1f} MiB is {peak / block:.2f} blocks"

    def test_rejects_bad_trials(self, small_scenario):
        with pytest.raises(ValueError):
            rmse_map(midpoint_baseline(small_scenario), small_scenario, 0, np.random.default_rng(54))

    def test_stats_invariants(self):
        assert LocalizationStats(per_point_rmse=np.array([1.0, 2.5, 0.5]), trials_per_point=3).max_rmse == 2.5
        with pytest.raises(ValueError):
            LocalizationStats(per_point_rmse=np.array([-1.0, 2.0]), trials_per_point=3)
        with pytest.raises(ValueError, match="per_point_rmse must be a non-empty 1-D array"):
            LocalizationStats(per_point_rmse=np.array([]), trials_per_point=3)


class TestRmseMaps:
    """One Monte Carlo pass for a whole ensemble: each map is the one `rmse_map` gives alone."""

    @pytest.fixture(scope="class")
    def ensemble(self, small_scenario):
        rng = np.random.default_rng(61)
        return [midpoint_baseline(small_scenario)] + [random_deployment(small_scenario, rng) for _ in range(3)]

    @pytest.fixture(scope="class")
    def alone(self, small_scenario, ensemble):
        return [rmse_map(dep, small_scenario, 4, np.random.default_rng(62)).per_point_rmse for dep in ensemble]

    @pytest.mark.parametrize("order", ["forward", "reversed", "prefix"])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_map_matches_its_own_rmse_map(self, small_scenario, ensemble, alone, monkeypatch, order, threads):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        picked = {"forward": [0, 1, 2, 3], "reversed": [3, 2, 1, 0], "prefix": [0, 1]}[order]
        maps = rmse_maps([ensemble[k] for k in picked], small_scenario, 4, np.random.default_rng(62), threads=threads)
        assert len(maps) == len(picked)
        for k, stats in zip(picked, maps):
            assert np.array_equal(stats.per_point_rmse, alone[k])
            assert stats.max_rmse == np.max(alone[k]) and stats.trials_per_point == 4

    def test_noiseless_ensemble_is_exactly_zero(self, small_scenario, ensemble):
        maps = rmse_maps(ensemble, small_scenario, 2, np.random.default_rng(64), powers=PowerLevels(1.0, 0.0))
        assert len(maps) == len(ensemble)
        assert all(np.array_equal(stats.per_point_rmse, np.zeros(stats.per_point_rmse.size)) for stats in maps)

    def test_an_empty_ensemble_gives_no_maps(self, small_scenario):
        assert rmse_maps([], small_scenario, 3, np.random.default_rng(65)) == []

    def test_different_element_counts_are_rejected(self, small_scenario):
        two_nodes = random_deployment(replace(small_scenario, node_count=2), np.random.default_rng(66))
        with pytest.raises(ValueError, match="same number of array elements"):
            rmse_maps([midpoint_baseline(small_scenario), two_nodes], small_scenario, 2, np.random.default_rng(67))

    def test_rejects_bad_trials_and_threads(self, small_scenario):
        ensemble = [midpoint_baseline(small_scenario)]
        with pytest.raises(ValueError, match="trials"):
            rmse_maps(ensemble, small_scenario, 0, np.random.default_rng(68))
        with pytest.raises(ValueError, match="threads"):
            rmse_maps(ensemble, small_scenario, 2, np.random.default_rng(68), threads=0)
