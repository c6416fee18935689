"""Deployment geometry: node poses, ULA element placement, spherical-wavefront
steering vectors, the coverage grid, and the scenario with its size limits.

Everything is planar. A deployment is J nodes, each an N-element uniform
linear array described by one pose row [x, y, theta]: the array phase center
plus the orientation of the element line. Steering vectors use the
spherical-wavefront (range-dependent) phase model, so they distinguish
positions rather than just directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import snr_to_powers
from .validation import integer_at_least, real_in

SPEED_OF_LIGHT = 299_792_458.0
"""Exact SI propagation speed (m/s) for frequency/wavelength conversion."""

TWO_PI = 2.0 * np.pi

MAX_GRID_POINTS = 10_000
"""Largest coverage grid a scenario may have. The worst-pair metric keeps the
upper triangle of one float64 weight matrix per grid, packed in 64-row slabs,
about n(n + 64)/2 * 8 bytes: 57.5 MB at a 0.25 m reference grid (n = 3,761),
about 400 MB at this limit and 2.2 GB at 0.1 m (n = 23,565). Larger grids are
rejected when the scenario is built, before any O(n^2) array exists."""

MAX_NOISE_BLOCK_BYTES = 1 << 30
"""Largest Monte Carlo noise block a config may ask for, per worker thread:
trials_per_point x antennas_per_node x J x snapshot_count complex128 values,
J the largest node count the run uses. A 1000-trial point of the reference
scenario takes 38.4 MB and the defaults 1.9 MB; `config.parse_config` rejects
larger blocks before anything is allocated."""

REGION_TOLERANCE = 1e-9
"""Relative slack on the region radius in `deployment_violations`, for round-off."""

COORDINATE_RESOLUTION = 1e-6
"""Largest float spacing (`math.ulp`) of the region's coordinates, up to
|center| + radius, as a fraction of the scenario's smallest length
(element spacing or grid resolution); a coordinate rounded by that much moves
a half-wavelength element's phase by at most pi * 1e-6 rad. The reference
scenario (0.0625 m spacing) takes centers below 5.3e8 m, and a 1e7 m
(UTM-scale) center passes up to an 80 GHz carrier. A 4 m desk run's best
fitness moves by 1e-9 at a 1e8 m center and 6e-8 at 5e8 m; near 1e15 m
antennas fall on grid points. The radius counts alone too: at the origin the
reference scenario takes radii below 5.3e8 m."""


_LOG_MAX_FLOAT = math.log(np.finfo(float).max)


class DegenerateGeometryError(ValueError):
    """A target position coincides with an antenna element (zero range)."""


class UnsupportedConfigurationError(ValueError):
    """The operation is not defined for this scenario configuration."""


def wavelength_of(carrier_frequency: float) -> float:
    """Carrier wavelength in meters for a frequency in Hz."""
    real_in("carrier_frequency", carrier_frequency, 0.0, above=True)
    return SPEED_OF_LIGHT / carrier_frequency


def wrap_angle(theta):
    """Wrap an angle (scalar or array, radians) into [0, 2*pi)."""
    arr = np.asarray(theta, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("angles must be finite")
    wrapped = np.mod(arr, TWO_PI)
    # np.mod may round up to exactly 2*pi for tiny negative inputs
    wrapped = np.where(wrapped >= TWO_PI, 0.0, wrapped)
    if arr.ndim == 0:
        return float(wrapped)
    return wrapped


@dataclass(frozen=True)
class Scenario:
    """Physical and simulation parameters shared across the package.

    Defaults reproduce the reference setup: a 2.4 GHz carrier, three
    four-element half-wavelength ULAs deployed inside the incircle of a
    30 m equilateral triangle, a 1 m coverage lattice, 0 dB SNR with 200
    snapshots, and distance-weight exponent alpha = 0.05.

    `snr_db` is the array-output SNR E/sigma^2 over unit-norm steering
    vectors (see `signals.snr_to_powers`); the per-element SNR is
    10*log10(N*J) dB lower, 10.8 dB in the reference setup.
    """

    carrier_frequency: float = 2.4e9
    antennas_per_node: int = 4
    node_count: int = 3
    region_radius: float = 30.0 / (2.0 * np.sqrt(3.0))
    region_center: tuple[float, float] = (0.0, 0.0)
    grid_resolution: float = 1.0
    snr_db: float = 0.0
    snapshot_count: int = 200
    alpha: float = 0.05
    element_spacing: float | None = None

    def __post_init__(self):
        wavelength = self.wavelength  # checks carrier_frequency
        for name in ("antennas_per_node", "node_count", "snapshot_count"):
            object.__setattr__(self, name, integer_at_least(name, getattr(self, name), 1))
        for name in ("region_radius", "grid_resolution"):
            real_in(name, getattr(self, name), 0.0, above=True)
        if _grid_point_count(self.region_radius, self.grid_resolution) > MAX_GRID_POINTS:
            raise ValueError(
                f"grid_resolution {self.grid_resolution!r} gives more than MAX_GRID_POINTS = "
                f"{MAX_GRID_POINTS} grid points for region_radius {self.region_radius:.6g} "
                "(the pair weights take about n^2 / 2 * 8 bytes)"
            )
        snr_to_powers(self.snr_db)  # finite and at most signals.MAX_SNR_DB
        real_in("alpha", self.alpha, 0.0)
        # no pair weight exceeds (2 * region_radius)^alpha; compared in logarithms, which stay finite
        log_span = math.log(2.0) + math.log(self.region_radius)
        if float(self.alpha) * log_span > _LOG_MAX_FLOAT:
            raise ValueError(
                f"alpha must be at most {_LOG_MAX_FLOAT / log_span:.6g} for region_radius {self.region_radius:.6g} "
                f"(above it the pair weight (2 * region_radius)^alpha overflows), got {self.alpha!r}"
            )
        try:
            center = tuple(real_in(f"region_center[{index}]", c) for index, c in enumerate(self.region_center))
        except TypeError:  # not iterable
            center = ()
        if len(center) != 2:
            raise ValueError(f"region_center must be a 2-D point, got {self.region_center!r}")
        object.__setattr__(self, "region_center", center)
        if self.element_spacing is None:
            object.__setattr__(self, "element_spacing", 0.5 * wavelength)
        real_in("element_spacing", self.element_spacing, 0.0, above=True)
        extent = max(abs(center[0]), abs(center[1])) + self.region_radius
        smallest = min(self.element_spacing, self.grid_resolution)
        if math.ulp(extent) > COORDINATE_RESOLUTION * smallest:
            cause = f"region_center {center} is too far from the origin"
            if math.ulp(self.region_radius) > COORDINATE_RESOLUTION * smallest:
                cause = f"region_radius {self.region_radius:.6g} is too large"
            raise ValueError(
                f"{cause}: coordinates up to {extent:.6g} m are "
                f"resolved only to {math.ulp(extent):.3g} m, above COORDINATE_RESOLUTION = {COORDINATE_RESOLUTION:g} "
                f"of the {smallest:.3g} m element spacing or grid resolution"
            )

    @property
    def wavelength(self) -> float:
        return wavelength_of(self.carrier_frequency)


@dataclass(frozen=True, eq=False)
class Deployment:
    """Node poses of one deployment: a read-only (J, 3) float array of
    [x, y, theta] rows, the phase center and element-line angle of each node
    in node order. The constructor copies its input; `==` compares poses."""

    poses: np.ndarray

    def __post_init__(self):
        poses = np.array(self.poses, dtype=float)
        if poses.ndim != 2 or poses.shape[1] != 3 or len(poses) == 0:
            raise ValueError(f"a deployment needs a non-empty (J, 3) array of [x, y, theta] rows, got {poses.shape}")
        if not np.all(np.isfinite(poses)):
            raise ValueError("poses must be finite")
        poses.flags.writeable = False
        object.__setattr__(self, "poses", poses)

    def __eq__(self, other):
        if not isinstance(other, Deployment):
            return NotImplemented
        return np.array_equal(self.poses, other.poses)

    @property
    def node_count(self) -> int:
        return len(self.poses)

    def as_array(self) -> np.ndarray:
        """Writable copy of the (J, 3) pose array."""
        return self.poses.copy()

    @classmethod
    def from_array(cls, rows) -> "Deployment":
        """The deployment of a (J, 3) array of [x, y, theta] rows (copied)."""
        return cls(rows)


def deployment_layout(deployment: Deployment, scenario: Scenario) -> np.ndarray:
    """All antenna element positions, node-major, shape (N*J, 2).

    Element n (1-based) of a node sits at (x, y) + (n - (N+1)/2) * spacing
    along the unit vector (cos theta, sin theta), so each array is centered
    on its pose.
    """
    n = scenario.antennas_per_node
    offsets = (np.arange(1, n + 1) - 0.5 * (n + 1)) * scenario.element_spacing
    theta = deployment.poses[:, 2]
    directions = np.column_stack((np.cos(theta), np.sin(theta)))
    steps = offsets[:, np.newaxis] * directions[:, np.newaxis, :]  # (J, N, 2)
    return (deployment.poses[:, np.newaxis, :2] + steps).reshape(-1, 2)


def steering_matrix(layout: np.ndarray, targets, wavelength: float) -> np.ndarray:
    """Steering vectors of many targets at once, shape (N*J, n_targets).

    Entry (m, k) is sqrt(1/NJ) * exp(-1j * (2*pi/wavelength) * range), with
    range the Euclidean distance from element m to target k; columns therefore
    have unit norm by construction.
    """
    layout = np.asarray(layout, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if targets.ndim == 1:
        targets = targets[np.newaxis, :]
    if layout.ndim != 2 or layout.shape[0] < 1 or layout.shape[1] != 2:
        raise ValueError(f"layout must be a non-empty (M, 2) array, got shape {layout.shape}")
    real_in("wavelength", wavelength, 0.0, above=True)
    ranges = np.hypot(
        targets[:, 0][:, np.newaxis] - layout[:, 0][np.newaxis, :],
        targets[:, 1][:, np.newaxis] - layout[:, 1][np.newaxis, :],
    )
    if np.any(ranges == 0.0):
        raise DegenerateGeometryError("target coincides with an antenna element (zero range)")
    phases = (-TWO_PI / wavelength) * ranges
    return (np.sqrt(1.0 / layout.shape[0]) * np.exp(1j * phases)).T


def steering_vector(layout: np.ndarray, target, wavelength: float) -> np.ndarray:
    """Spherical-wavefront steering vector of one target, shape (N*J,)."""
    return steering_matrix(layout, np.asarray(target, dtype=float)[np.newaxis, :], wavelength)[:, 0]


def coverage_grid(center, radius: float, resolution: float) -> np.ndarray:
    """Lattice points within `radius` of `center`, shape (n_points, 2).

    The lattice is anchored at the center (which is always a grid point) and
    enumerated row-major: ascending y, then ascending x, so grid indices are
    stable across runs and implementations.
    """
    real_in("radius", radius, 0.0, above=True)
    real_in("resolution", resolution, 0.0, above=True)
    cx, cy = float(center[0]), float(center[1])
    n = int(np.floor(radius / resolution))
    steps = np.arange(-n, n + 1) * resolution
    xx, yy = np.meshgrid(steps, steps)
    keep = np.hypot(xx, yy) <= radius
    return np.column_stack((cx + xx[keep], cy + yy[keep]))


def _grid_point_count(radius: float, resolution: float) -> float:
    """Number of `coverage_grid` points, or inf when it surely exceeds MAX_GRID_POINTS.

    Lattice points with |i|, |j| <= m / 1.5 (m = radius / resolution) lie well
    inside the disk, so a grid whose inner square alone is too large is never
    built; any other grid has at most about 1.8 * MAX_GRID_POINTS points.
    """
    inner_side = 2.0 * np.floor(float(radius) / float(resolution) / 1.5) + 1.0
    if inner_side > np.sqrt(MAX_GRID_POINTS):
        return float("inf")
    return len(coverage_grid((0.0, 0.0), radius, resolution))


def midpoint_baseline(scenario: Scenario) -> Deployment:
    """Three-node reference deployment at the region circle's tangency points.

    Nodes sit on the circle at bearings 90, 210 and 330 degrees (the side
    midpoints of the enclosing equilateral triangle); each array lies along
    the local tangent, i.e. parallel to the adjacent triangle side, so its
    broadside faces the centroid.
    """
    if scenario.node_count != 3:
        raise UnsupportedConfigurationError(
            f"midpoint baseline is defined for 3 nodes, scenario has {scenario.node_count}"
        )
    cx, cy = scenario.region_center
    r = scenario.region_radius
    bearings = np.deg2rad((90.0, 210.0, 330.0))
    return Deployment(
        np.column_stack((cx + r * np.cos(bearings), cy + r * np.sin(bearings), wrap_angle(bearings + 0.5 * np.pi)))
    )


def uniform_disk(rng: np.random.Generator, n: int, center, radius: float) -> np.ndarray:
    """n points uniform over a disk via the polar inverse-CDF (range = r*sqrt(u)).

    Consumes one (n, 2) uniform block: column 0 drives the radial coordinate,
    column 1 the polar angle.
    """
    u = rng.random((n, 2))
    rad = radius * np.sqrt(u[:, 0])
    ang = TWO_PI * u[:, 1]
    return np.column_stack((center[0] + rad * np.cos(ang), center[1] + rad * np.sin(ang)))


def random_deployment(scenario: Scenario, rng: np.random.Generator) -> Deployment:
    """Deployment with positions uniform over the region disk and orientations
    uniform on [0, 2*pi).

    Stream order: one (J, 2) uniform block for the positions, then one (J,)
    block for the angles.
    """
    positions = uniform_disk(rng, scenario.node_count, scenario.region_center, scenario.region_radius)
    thetas = wrap_angle(TWO_PI * rng.random(scenario.node_count))
    return Deployment(np.column_stack((positions, thetas)))


def deployment_violations(deployment: Deployment, scenario: Scenario) -> list[str]:
    """Feasibility violations as human-readable messages (empty when feasible).

    Checks node count, the in-region invariant for every position (with the
    radius tolerance `REGION_TOLERANCE`), and theta in [0, 2*pi).
    """
    msgs = []
    if deployment.node_count != scenario.node_count:
        msgs.append(
            f"deployment has {deployment.node_count} nodes, scenario expects {scenario.node_count}"
        )
    cx, cy = scenario.region_center
    limit = scenario.region_radius * (1.0 + REGION_TOLERANCE)
    for idx, (x, y, theta) in enumerate(deployment.poses.tolist()):
        dist = float(np.hypot(x - cx, y - cy))
        if dist > limit:
            msgs.append(
                f"node {idx}: position ({x:.6g}, {y:.6g}) is {dist:.6g} m from the "
                f"center, outside the {scenario.region_radius:.6g} m region"
            )
        if not 0.0 <= theta < TWO_PI:
            msgs.append(f"node {idx}: theta {theta:.6g} outside [0, 2*pi)")
    return msgs
