"""Independent reference computations for the benchmark's output checks.

Nothing here imports isacdeploy. The coverage lattice, the element layout, the
spherical-wavefront steering model, the worst-pair metric and the MUSIC Monte
Carlo are written again from their definitions, so that a fault in a program
helper cannot also hide in the reference that checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class RefScenario:
    """The scenario facts a check needs, as plain numbers."""

    frequency: float = 2.4e9
    antennas: int = 4
    nodes: int = 3
    radius: float = 30.0 / (2.0 * np.sqrt(3.0))
    resolution: float = 1.0
    alpha: float = 0.05
    snapshots: int = 200

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.frequency

    @cached_property
    def grid(self) -> np.ndarray:
        """Lattice points within `radius` of the origin: ascending y, then x."""
        k = int(np.floor(self.radius / self.resolution))
        steps = np.arange(-k, k + 1) * self.resolution
        return np.array(
            [(x, y) for y in steps for x in steps if np.hypot(x, y) <= self.radius], dtype=float
        )

    def elements(self, poses) -> np.ndarray:
        """(nodes * antennas, 2) element positions: half-wavelength ULAs centred on each pose."""
        offsets = (np.arange(self.antennas) - 0.5 * (self.antennas - 1)) * (0.5 * self.wavelength)
        return np.concatenate(
            [
                np.column_stack((x + offsets * np.cos(theta), y + offsets * np.sin(theta)))
                for x, y, theta in np.asarray(poses, dtype=float)
            ]
        )

    def steering(self, poses, points=None) -> np.ndarray:
        """(M, n) unit-norm steering columns exp(-j 2 pi r / lambda) / sqrt(M)."""
        points = self.grid if points is None else np.asarray(points, dtype=float)
        elements = self.elements(poses)
        ranges = np.hypot(
            elements[:, 0, np.newaxis] - points[np.newaxis, :, 0],
            elements[:, 1, np.newaxis] - points[np.newaxis, :, 1],
        )
        return np.exp(-1j * (TWO_PI / self.wavelength) * ranges) / np.sqrt(len(elements))

    def pair_value(self, poses, p, q) -> float:
        """|a(p)^H a(q)| * |p - q|^alpha for two points given by coordinates."""
        a = self.steering(poses, np.array([p, q], dtype=float))
        return float(abs(np.vdot(a[:, 0], a[:, 1])) * np.hypot(p[0] - q[0], p[1] - q[1]) ** self.alpha)

    def worst_pair(self, poses, block: int = 256) -> tuple[float, tuple[int, int]]:
        """Brute-force maximum of the weighted correlation over all pairs i < j.

        Works through row blocks, so memory is O(block * n) whatever the grid.
        """
        points = self.grid
        a = self.steering(poses)
        n = len(points)
        best, arg = -np.inf, (0, 0)
        for start in range(0, n - 1, block):
            stop = min(start + block, n)
            rows = np.arange(start, stop)
            gram = np.abs(a[:, start:stop].conj().T @ a)
            dist = np.hypot(
                points[start:stop, 0, np.newaxis] - points[np.newaxis, :, 0],
                points[start:stop, 1, np.newaxis] - points[np.newaxis, :, 1],
            )
            values = np.where(np.arange(n)[np.newaxis, :] > rows[:, np.newaxis], gram * dist**self.alpha, -np.inf)
            k = int(np.argmax(values))
            if values.flat[k] > best:
                best, arg = float(values.flat[k]), (int(rows[k // n]), int(k % n))
        return best, arg


def midpoint_poses(ref: RefScenario) -> np.ndarray:
    """Three nodes at the side midpoints of the enclosing triangle, arrays along the tangent."""
    bearings = np.deg2rad([90.0, 210.0, 330.0])
    return np.column_stack(
        (ref.radius * np.cos(bearings), ref.radius * np.sin(bearings), np.mod(bearings + 0.5 * np.pi, TWO_PI))
    )


def random_poses(ref: RefScenario, rng: np.random.Generator) -> np.ndarray:
    """Positions uniform over the region disk, orientations uniform on [0, 2 pi)."""
    radius = ref.radius * np.sqrt(rng.random(ref.nodes))
    bearing = TWO_PI * rng.random(ref.nodes)
    theta = TWO_PI * rng.random(ref.nodes)
    return np.column_stack((radius * np.cos(bearing), radius * np.sin(bearing), theta))


def music_exact(
    steering: np.ndarray, snr_db: float, snapshots: int, trials: int, rng: np.random.Generator
) -> np.ndarray:
    """Per grid point: True when every one of `trials` MUSIC estimates is the point itself.

    Each trial draws `snapshots` samples of y = a s + n, with a complex Gaussian
    source of power 10^(snr_db / 10) and unit-power white noise, forms the sample
    covariance, takes the M - 1 smallest eigenvectors as the noise subspace and
    picks the grid point of largest pseudo-spectrum 1 / |E_n^H a|^2.
    """
    m, n = steering.shape
    amplitude = np.sqrt(10.0 ** (snr_db / 10.0) / 2.0)
    exact = np.empty(n, dtype=bool)
    for i in range(n):
        source = amplitude * (rng.standard_normal((trials, 1, snapshots)) + 1j * rng.standard_normal((trials, 1, snapshots)))
        noise = np.sqrt(0.5) * (rng.standard_normal((trials, m, snapshots)) + 1j * rng.standard_normal((trials, m, snapshots)))
        y = steering[np.newaxis, :, i, np.newaxis] * source + noise
        cov = y @ y.conj().transpose(0, 2, 1) / snapshots
        _, vectors = np.linalg.eigh(cov)
        projected = vectors[:, :, : m - 1].conj().transpose(0, 2, 1) @ steering
        with np.errstate(divide="ignore"):
            spectrum = 1.0 / np.sum(np.abs(projected) ** 2, axis=1)
        exact[i] = bool(np.all(np.argmax(spectrum, axis=1) == i))
    return exact
