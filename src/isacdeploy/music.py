"""Subspace-based single-target localization over the coverage grid.

MUSIC scores each grid point by the power of its unit-norm steering vector a
in the noise subspace of the sample covariance (the eigenvectors of the
smallest M - 1 eigenvalues, M = N*J) and picks the minimizer. With one source
that subspace is the orthogonal complement of the principal eigenvector u1,
so the projected power is 1 - |u1^H a|^2: the localizer takes the argmax of
|u1^H a|^2, the same point for one inner product per grid point instead of
M - 1. Ties go to the lowest grid index.

`_localize_indices` does this for a whole stack of covariances; `localize`
checks one covariance and calls it, and `rmse_map` calls it on the
covariances of one snapshot stack per grid point. Each `rmse_map` worker
thread draws its stacks into one `signals.SnapshotWorkspace`, made on the
thread's first grid point and reused for the rest of the map, so a point
allocates no snapshot-sized block. A 1000-trial point at the reference
scenario peaks at 1.43 times its (trials, M, T) complex stack (52.5 MiB).

Monte Carlo RMSE maps draw per-grid-point child streams from the caller's
generator, so identically seeded generators give common random numbers
across deployments and SNR levels - paired comparisons see the same noise.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .correlation import GridCodebook, build_codebook
from .geometry import Deployment, Scenario
from .signals import PowerLevels, SnapshotWorkspace, snr_to_powers


@dataclass(frozen=True, eq=False)
class LocalizationStats:
    """Per-grid-point localization RMSE (grid order) and its network-wide max."""

    per_point_rmse: np.ndarray
    max_rmse: float
    trials_per_point: int

    def __post_init__(self):
        rmse = np.asarray(self.per_point_rmse, dtype=float)
        if rmse.ndim != 1 or rmse.size < 1:
            raise ValueError("per_point_rmse must be a non-empty 1-D array")
        if not np.all(rmse >= 0.0):
            raise ValueError("RMSE entries must be >= 0")
        if self.max_rmse != float(np.max(rmse)):
            raise ValueError(
                f"max_rmse {self.max_rmse!r} does not equal the largest per-point value {np.max(rmse)!r}"
            )
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        object.__setattr__(self, "per_point_rmse", rmse)


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


def _point_rmse(codebook: GridCodebook, index: int, powers: PowerLevels, rng, work: SnapshotWorkspace) -> float:
    """RMSE of the batched localizations of the target at grid point `index`.

    `work` sets the trial and snapshot counts and is overwritten. Stream order
    per point: one source block (trials, T), then one noise block
    (trials, M, T), as `SnapshotWorkspace.draw` takes them.
    """
    work.draw(codebook.steering[:, index], powers, rng)
    estimates = _localize_indices(work.covariances(), codebook.steering)
    squared_error = np.sum((codebook.grid[estimates] - codebook.grid[index]) ** 2, axis=1)
    return float(np.sqrt(np.mean(squared_error)))


def rmse_map(
    deployment: Deployment,
    scenario: Scenario,
    trials: int,
    rng: np.random.Generator,
    *,
    powers: PowerLevels | None = None,
    threads: int = 1,
) -> LocalizationStats:
    """Monte Carlo localization RMSE at every coverage-grid point.

    Each grid point gets its own child stream spawned from `rng` in grid
    order, so results are reproducible for a given seed, independent of
    `threads`, and use common random numbers across deployments. The pool
    has at most one worker per CPU core, however large `threads` is.
    `powers` overrides the scenario SNR (e.g. a zero noise power).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads!r}")
    if powers is None:
        powers = snr_to_powers(scenario.snr_db)
    codebook = build_codebook(deployment, scenario)
    n = len(codebook.grid)
    streams = rng.spawn(n)
    per_point = np.empty(n)
    local = threading.local()

    def run_point(i: int) -> None:
        work = getattr(local, "work", None)
        if work is None:
            work = local.work = SnapshotWorkspace(trials, codebook.steering.shape[0], scenario.snapshot_count)
        per_point[i] = _point_rmse(codebook, i, powers, streams[i], work)

    workers = min(threads, os.cpu_count() or 1)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_point, range(n)))
    else:
        for i in range(n):
            run_point(i)
    return LocalizationStats(
        per_point_rmse=per_point, max_rmse=float(np.max(per_point)), trials_per_point=trials
    )
