"""Distance-weighted steering correlation: the deployment quality metric.

The figure of merit for a deployment is the worst (largest) value of
|a_i^H a_j| * d_ij^alpha over all unordered pairs of coverage-grid points,
where a_i is the unit-norm steering vector of grid point i and d_ij the
inter-point distance. Small values mean every pair of positions, including
far-apart ones, stays distinguishable to the array.

Also provides the covariance-separability identity (the Frobenius distance
between the rank-one covariance contributions of two unit steering vectors)
and the overlap/residual decomposition that underlies the localization error
analysis.

The worst-pair scan writes its blocks into one pair of flat buffers per thread
(BLOCK_ROWS * n complex and float), built on the thread's first call and kept
until the grid size n changes, so repeated calls fault in no fresh pages.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import Deployment, Scenario, coverage_grid, deployment_layout, steering_matrix
from .validation import real_in

BLOCK_ROWS = 64
"""Grid rows per block of the weight build and the worst-pair scan; 64 was
fastest at both the 1 m (n = 241) and the 0.25 m (n = 3761) reference grids.
Each thread that scans keeps 24 * BLOCK_ROWS * n bytes of block buffers: 0.37 MB
at 1 m, 5.8 MB at 0.25 m and 15.4 MB at `geometry.MAX_GRID_POINTS`."""

_ON_OR_BELOW_DIAGONAL = np.tri(BLOCK_ROWS, dtype=bool)
_scan_buffers = threading.local()


class UndefinedCorrelationError(ValueError):
    """Pearson correlation is undefined (an input has zero variance)."""


@dataclass(frozen=True, eq=False)
class GridCodebook:
    """Steering vectors and pair weights of one deployment over the grid.

    grid: (n, 2) coverage-grid points.
    steering: (N*J, n) unit-norm steering columns, one per grid point.
    weight_slabs: d_ij^alpha over the upper triangle, packed in the blocks of
        the worst-pair scan (see `weight_slabs`); about n(n + 64)/2 * 8 bytes
        instead of n^2 * 8 for the full symmetric matrix.
    """

    grid: np.ndarray
    steering: np.ndarray
    weight_slabs: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class CorrelationReport:
    """Worst grid pair of one deployment: the metric value and its argmax."""

    max_value: float
    arg_pair: tuple[int, int]

    def __post_init__(self):
        if not self.max_value >= 0.0:
            raise ValueError(f"max_value must be >= 0, got {self.max_value!r}")
        i, j = self.arg_pair
        if not 0 <= i < j:
            raise ValueError(f"arg_pair must satisfy 0 <= i < j, got {self.arg_pair!r}")
        object.__setattr__(self, "arg_pair", (int(i), int(j)))


def _slab(points: np.ndarray, i0: int, alpha: float) -> np.ndarray:
    """Rows [i0, i1) x columns [i0, n) of d_ij^alpha, diagonal zeroed."""
    i1 = min(i0 + BLOCK_ROWS, len(points) - 1)
    rows = points[i0:i1]
    slab = np.hypot(rows[:, 0:1] - points[i0:, 0], rows[:, 1:2] - points[i0:, 1])
    slab **= alpha
    np.fill_diagonal(slab, 0.0)
    return slab


def weight_slabs(points, alpha: float) -> tuple[np.ndarray, ...]:
    """Pair weights d_ij^alpha over the upper triangle, one slab per scan block.

    Slab b holds rows [i0, i1) x columns [i0, n) of the symmetric weight
    matrix, with i0 = BLOCK_ROWS * b and i1 = min(i0 + BLOCK_ROWS, n - 1), and
    a zeroed diagonal: exactly the part `max_weighted_correlation` reads. The
    last grid row has no pair j > i, so no slab holds it; n < 2 gives none.
    """
    real_in("alpha", alpha, 0.0)
    points = np.asarray(points, dtype=float)
    return tuple(_slab(points, i0, alpha) for i0 in range(0, len(points) - 1, BLOCK_ROWS))


@lru_cache(maxsize=1)
def _grid_weights(
    center, radius: float, resolution: float, alpha: float
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Coverage grid and its weight slabs, built once per grid.

    Every codebook of the grid shares them, across deployments, node counts
    and SNR levels, so they are read-only. Only the most recent grid is kept:
    at a 0.25 m reference grid the slabs alone take 57.5 MB.
    """
    grid = coverage_grid(center, radius, resolution)
    slabs = weight_slabs(grid, alpha)
    grid.flags.writeable = False
    for slab in slabs:
        slab.flags.writeable = False
    return grid, slabs


def build_codebook(deployment: Deployment, scenario: Scenario) -> GridCodebook:
    """Codebook of one deployment over the scenario coverage grid.

    The grid and its weight slabs are shared with every other codebook of the
    same grid and exponent (see `_grid_weights`).
    """
    grid, slabs = _grid_weights(
        scenario.region_center, scenario.region_radius, scenario.grid_resolution, scenario.alpha
    )
    layout = deployment_layout(deployment, scenario)
    return GridCodebook(
        grid=grid,
        steering=steering_matrix(layout, grid, scenario.wavelength),
        weight_slabs=slabs,
    )


def weighted_correlation(a_i, a_j, distance: float, alpha: float) -> float:
    """|a_i^H a_j| * distance**alpha for one pair of steering vectors."""
    a_i = np.asarray(a_i)
    a_j = np.asarray(a_j)
    if a_i.shape != a_j.shape or a_i.ndim != 1:
        raise ValueError(f"expected two vectors of equal length, got shapes {a_i.shape} and {a_j.shape}")
    real_in("distance", distance, 0.0)
    real_in("alpha", alpha, 0.0)
    return float(np.abs(np.vdot(a_i, a_j)) * distance**alpha)


def max_weighted_correlation(codebook: GridCodebook) -> CorrelationReport:
    """Worst (largest) weighted correlation over all unordered grid pairs.

    Ties resolve to the lexicographically first (i, j) pair, so the report is
    deterministic for a given codebook. The strict upper triangle is scored
    `BLOCK_ROWS` rows at a time, so memory stays O(BLOCK_ROWS * n): each block
    keeps its row-major first maximum, and a later block replaces the running
    best only when strictly larger. A warm call allocates little beyond
    `steering.conj()`: its blocks go into this thread's scan buffers.
    """
    steering = codebook.steering
    n = steering.shape[1]
    if n < 2:
        raise ValueError(f"need at least two grid points to form a pair, got {n}")
    buffers = getattr(_scan_buffers, "pair", None)
    if buffers is None or buffers[1].size != BLOCK_ROWS * n:
        buffers = _scan_buffers.pair = (np.empty(BLOCK_ROWS * n, complex), np.empty(BLOCK_ROWS * n))
    products, magnitudes = buffers
    conj_rows = steering.conj().T
    best_value, best_pair = -1.0, (0, 1)
    for i0, slab in zip(range(0, n - 1, BLOCK_ROWS), codebook.weight_slabs, strict=True):
        i1 = i0 + len(slab)
        block = np.matmul(conj_rows[i0:i1], steering[:, i0:], out=products[: slab.size].reshape(slab.shape))
        values = np.abs(block, out=magnitudes[: slab.size].reshape(slab.shape))
        values *= slab
        # local column c is grid point i0 + c: mask the pairs with j <= i
        values[:, : i1 - i0][_ON_OR_BELOW_DIAGONAL[: i1 - i0, : i1 - i0]] = -1.0
        r, c = np.unravel_index(int(np.argmax(values)), values.shape)
        if values[r, c] > best_value:
            best_value, best_pair = float(values[r, c]), (i0 + int(r), i0 + int(c))
    return CorrelationReport(max_value=best_value, arg_pair=best_pair)


def pearson(xs, ys) -> float:
    """Sample Pearson correlation coefficient of two equal-length sequences."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError(f"expected two sequences of equal length, got shapes {xs.shape} and {ys.shape}")
    if xs.size < 2:
        raise ValueError(f"need at least two samples, got {xs.size}")
    # scaling each sequence by a power of two is exact and changes no rounding,
    # but keeps the sums of squares finite for values near the largest float
    xs = np.ldexp(xs, -np.frexp(np.max(np.abs(xs)))[1])
    ys = np.ldexp(ys, -np.frexp(np.max(np.abs(ys)))[1])
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sx = float(dx @ dx)
    sy = float(dy @ dy)
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("correlation is undefined for a constant sequence")
    return float(np.clip((dx @ dy) / np.sqrt(sx * sy), -1.0, 1.0))


def _require_unit(v, name: str) -> np.ndarray:
    v = np.asarray(v)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"{name} must have unit norm, got norm {norm!r}")
    return v


def frobenius_separability(a_i, a_j, source_power: float) -> float:
    """Frobenius distance between the rank-one covariance terms of two targets.

    For unit-norm steering vectors the distance has the closed form
    source_power * sqrt(2 * (1 - |a_i^H a_j|^2)): it is maximal for orthogonal
    steering vectors and vanishes as they align, which is what ties covariance
    separability to the correlation metric.
    """
    a_i = _require_unit(a_i, "a_i")
    a_j = _require_unit(a_j, "a_j")
    real_in("source_power", source_power, 0.0, above=True)
    overlap_sq = float(np.abs(np.vdot(a_i, a_j)) ** 2)
    return float(source_power * np.sqrt(2.0 * max(0.0, 1.0 - overlap_sq)))


def overlap_decompose(a, b) -> tuple[complex, np.ndarray]:
    """Split unit vector b into its component along unit vector a plus residual.

    Returns (coefficient, residual) with b = coefficient * a + residual,
    coefficient = a^H b, and residual orthogonal to a with squared norm
    1 - |coefficient|^2.
    """
    a = _require_unit(a, "a")
    b = _require_unit(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"vectors must have equal shape, got {a.shape} and {b.shape}")
    coefficient = complex(np.vdot(a, b))
    return coefficient, b - coefficient * a
