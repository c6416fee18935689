"""Subspace-based single-target localization over the coverage grid.

MUSIC scores each grid point by the power of its unit-norm steering vector a
in the noise subspace of the sample covariance (the eigenvectors of the
smallest M - 1 eigenvalues, M = N*J) and picks the minimizer. With one source
that subspace is the orthogonal complement of the principal eigenvector u1,
so the projected power is 1 - |u1^H a|^2: the localizer takes the argmax of
|u1^H a|^2, the same point for one inner product per grid point instead of
M - 1. Ties go to the lowest grid index.

`_localize_indices` does this for a whole stack of covariances; `localize`
calls it on one covariance, and `rmse_maps` on each grid point's stack for
every deployment of an ensemble. Each worker thread draws its share of the
grid points into one `signals.SnapshotWorkspace`; a point's source and noise
blocks serve every deployment, and only y = a*s + n and its reduction are
per deployment. `rmse_map` is the map of one deployment.

Monte Carlo RMSE maps draw per-grid-point child streams from the caller's
generator, so identically seeded generators give common random numbers
across deployments and SNR levels - paired comparisons see the same noise.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .correlation import GridCodebook, build_codebook
from .geometry import Deployment, Scenario
from .signals import PowerLevels, SnapshotWorkspace, snr_to_powers
from .validation import integer_at_least


@dataclass(frozen=True, eq=False)
class LocalizationStats:
    """Per-grid-point localization RMSE (grid order) and its network-wide max."""

    per_point_rmse: np.ndarray
    trials_per_point: int

    def __post_init__(self):
        rmse = np.asarray(self.per_point_rmse, dtype=float)
        if rmse.ndim != 1 or rmse.size < 1:
            raise ValueError("per_point_rmse must be a non-empty 1-D array")
        if not np.all(rmse >= 0.0):
            raise ValueError("RMSE entries must be >= 0")
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        object.__setattr__(self, "per_point_rmse", rmse)

    @property
    def max_rmse(self) -> float:
        return float(np.max(self.per_point_rmse))


def _localize_indices(covs, steering: np.ndarray) -> np.ndarray:
    """Grid index with the largest |u1^H a|^2 for each covariance in covs (..., M, M).

    u1 is the eigenvector of the largest eigenvalue; ties go to the lowest index.
    """
    _, vectors = np.linalg.eigh(covs)  # ascending eigenvalues
    inner = vectors[..., -1].conj() @ steering
    return np.argmax(inner.real**2 + inner.imag**2, axis=-1)


def localize(cov, codebook: GridCodebook) -> np.ndarray:
    """Grid point of the rank-one MUSIC estimate for one (M, M) covariance."""
    cov = np.asarray(cov)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"covariance must be square, got shape {cov.shape}")
    if not np.all(np.isfinite(cov.real)) or not np.all(np.isfinite(cov.imag)):
        raise ValueError("covariance must be finite")
    scale = max(1.0, float(np.max(np.abs(cov))))
    if not np.allclose(cov, cov.conj().T, atol=1e-10 * scale):
        raise ValueError("covariance must be Hermitian")
    if cov.shape[0] != codebook.steering.shape[0]:
        raise ValueError(
            f"covariance dimension {cov.shape[0]} does not match codebook dimension {codebook.steering.shape[0]}"
        )
    return codebook.grid[_localize_indices(cov, codebook.steering)].copy()


def _point_rmse(codebooks: list[GridCodebook], index: int, powers: PowerLevels, rng, work: SnapshotWorkspace):
    """RMSE of each codebook's batched localizations of the target at point `index` of their common grid.

    `work` sets the trial and snapshot counts and is overwritten. Stream order
    per point: one source block (trials, T), then one noise block
    (trials, M, T), as `SnapshotWorkspace.draw` takes them; all codebooks share them.
    """
    work.draw(powers, rng)
    estimates = [_localize_indices(work.covariances(book.steering[:, index]), book.steering) for book in codebooks]
    grid = codebooks[0].grid
    squared_error = np.sum((grid[np.array(estimates)] - grid[index]) ** 2, axis=-1)
    return np.sqrt(np.mean(squared_error, axis=-1))


def rmse_maps(
    deployments: list[Deployment],
    scenario: Scenario,
    trials: int,
    rng: np.random.Generator,
    *,
    powers: PowerLevels | None = None,
    threads: int = 1,
) -> list[LocalizationStats]:
    """Monte Carlo localization RMSE at every coverage-grid point, one map per deployment.

    Each grid point gets its own child stream spawned from `rng` in grid
    order, drawn once for all deployments (which must have equal element
    counts), so each map is reproducible, independent of `threads` and of the
    other deployments. The pool has at most one worker per CPU core, however
    large `threads` is. `powers` overrides the scenario SNR (e.g. a zero noise power).
    """
    trials = integer_at_least("trials", trials, 1)
    threads = integer_at_least("threads", threads, 1)
    if powers is None:
        powers = snr_to_powers(scenario.snr_db)
    codebooks = [build_codebook(deployment, scenario) for deployment in deployments]
    if not codebooks:
        return []
    m, n = codebooks[0].steering.shape
    if any(book.steering.shape[0] != m for book in codebooks):
        raise ValueError(f"deployments must have the same number of array elements ({m} in the first)")
    streams = rng.spawn(n)
    per_point = np.empty((len(codebooks), n))

    def run_points(points: range) -> None:
        work = SnapshotWorkspace(trials, m, scenario.snapshot_count)
        for i in points:
            per_point[:, i] = _point_rmse(codebooks, i, powers, streams[i], work)

    workers = min(threads, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_points, [range(k, n, workers) for k in range(workers)]))
    else:
        run_points(range(n))
    return [LocalizationStats(rmse, trials) for rmse in per_point]


def rmse_map(
    deployment: Deployment,
    scenario: Scenario,
    trials: int,
    rng: np.random.Generator,
    *,
    powers: PowerLevels | None = None,
    threads: int = 1,
) -> LocalizationStats:
    """Monte Carlo localization RMSE at every coverage-grid point of one deployment (see `rmse_maps`)."""
    return rmse_maps([deployment], scenario, trials, rng, powers=powers, threads=threads)[0]
