"""Geometry layer tests: pose arrays, element placement, steering vectors, grid.

Derived expectations are frozen from independent brute-force oracles
(scalar loops over elements, exhaustive lattice enumeration, and an
explicit triangle construction for the midpoint baseline).
"""

import dataclasses
import math

import numpy as np
import pytest

from isacdeploy.geometry import (
    SPEED_OF_LIGHT,
    TWO_PI,
    DegenerateGeometryError,
    Deployment,
    Scenario,
    UnsupportedConfigurationError,
    coverage_grid,
    deployment_layout,
    deployment_violations,
    midpoint_baseline,
    random_deployment,
    steering_matrix,
    steering_vector,
    uniform_disk,
    wavelength_of,
    wrap_angle,
)

# ---------------------------------------------------------------- oracles


def ula_positions_oracle(x, y, theta, n, d):
    """Element-by-element scalar recomputation of the ULA placement rule."""
    pts = []
    for k in range(1, n + 1):
        off = (k - (n + 1) / 2.0) * d
        pts.append((x + off * math.cos(theta), y + off * math.sin(theta)))
    return np.array(pts)


def one_node_layout(x, y, theta, n, d):
    """Element positions of a one-node deployment, shape (n, 2)."""
    scenario = Scenario(node_count=1, antennas_per_node=n, element_spacing=d)
    return deployment_layout(Deployment([[x, y, theta]]), scenario)


def steering_oracle(layout, target, wavelength):
    """Scalar-loop spherical-wavefront steering vector."""
    m = len(layout)
    out = []
    for ex, ey in layout:
        rng = math.hypot(target[0] - ex, target[1] - ey)
        ph = -2.0 * math.pi / wavelength * rng
        out.append(math.sqrt(1.0 / m) * complex(math.cos(ph), math.sin(ph)))
    return np.array(out)


def lattice_oracle(center, radius, resolution):
    """Exhaustive lattice enumeration: every in-disk point as a coordinate set."""
    pts = set()
    n = int(math.floor(radius / resolution)) + 2
    for k in range(-n, n + 1):
        for i in range(-n, n + 1):
            x, y = i * resolution, k * resolution
            if math.hypot(x, y) <= radius:
                pts.add((center[0] + x, center[1] + y))
    return pts


def tangency_points_oracle(radius):
    """Incircle tangency points built from the enclosing equilateral triangle.

    Vertices sit at bearings 30/150/270 deg on the circumcircle (radius 2r,
    one vertex due south so a side midpoint points due north); tangency
    points are the side midpoints.
    """
    verts = np.array(
        [
            [2 * radius * math.cos(math.radians(a)), 2 * radius * math.sin(math.radians(a))]
            for a in (30.0, 150.0, 270.0)
        ]
    )
    return np.array([(verts[0] + verts[1]) / 2, (verts[1] + verts[2]) / 2, (verts[2] + verts[0]) / 2])


# ---------------------------------------------------------------- wavelength


class TestWavelength:
    def test_reference_carrier(self):
        assert wavelength_of(2.4e9) == 0.12491352416666666

    def test_identity_frequency(self):
        assert wavelength_of(SPEED_OF_LIGHT) == 1.0

    def test_half_frequency_doubles(self):
        assert wavelength_of(1.2e9) == 0.24982704833333333
        assert wavelength_of(1.2e9) == pytest.approx(2 * wavelength_of(2.4e9), rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -2.4e9, float("inf"), float("nan")])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            wavelength_of(bad)


# ---------------------------------------------------------------- wrap_angle


class TestWrapAngle:
    def test_zero(self):
        assert wrap_angle(0.0) == 0.0

    def test_full_turn(self):
        assert wrap_angle(TWO_PI) == 0.0

    def test_negative_quarter(self):
        assert wrap_angle(-math.pi / 2) == pytest.approx(3 * math.pi / 2, abs=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            wrap_angle(float("nan"))
        with pytest.raises(ValueError):
            wrap_angle(np.array([0.0, float("inf")]))

    def test_idempotent_and_in_range(self):
        rng = np.random.default_rng(404)
        edges = [0.0, -0.0, math.pi, -math.pi, TWO_PI, -TWO_PI, 1e6, -1e6]
        for theta in [*rng.uniform(-1e6, 1e6, size=1000), *edges]:
            w = wrap_angle(float(theta))
            assert 0.0 <= w < TWO_PI
            assert wrap_angle(w) == w

    def test_congruent_mod_two_pi(self):
        rng = np.random.default_rng(405)
        for theta in rng.uniform(-1e3, 1e3, size=1000):
            w = wrap_angle(float(theta))
            turns = (theta - w) / TWO_PI
            assert abs(turns - round(turns)) < 1e-9


# ---------------------------------------------------------------- scenario / poses


class TestScenario:
    def test_defaults_are_the_reference_setup(self):
        s = Scenario()
        assert s.carrier_frequency == 2.4e9
        assert s.antennas_per_node == 4
        assert s.node_count == 3
        assert s.region_radius == pytest.approx(8.660254037844387)
        assert s.snapshot_count == 200
        assert s.snr_db == 0.0
        assert s.alpha == 0.05
        assert s.wavelength == wavelength_of(2.4e9)
        assert s.element_spacing == 0.5 * s.wavelength

    def test_explicit_spacing_kept(self):
        s = Scenario(element_spacing=0.03)
        assert s.element_spacing == 0.03

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"carrier_frequency": 0.0},
            {"antennas_per_node": 0},
            {"node_count": 0},
            {"antennas_per_node": 2.5},
            {"region_radius": -1.0},
            {"grid_resolution": 0.0},
            {"snapshot_count": 0},
            {"alpha": -0.1},
            {"element_spacing": 0.0},
            {"snr_db": float("nan")},
            {"region_center": (0.0,)},
            {"antennas_per_node": True},
            {"node_count": True},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            Scenario(**kwargs)

    def test_region_center_must_keep_coordinates_resolved(self):
        # a float spaces coordinates near 1e7 m by 1.9e-9 m: fine against the 0.0625 m
        # element spacing; near 1e10 m by 1.9e-6 m, above a millionth of it
        assert Scenario(region_center=(1e7, -1e7)).region_center == (1e7, -1e7)
        assert Scenario(region_center=(5e8, 0.0)).region_center == (5e8, 0.0)
        for center in ((1e10, 0.0), (0.0, -1e15), (1e17, 1.0)):
            with pytest.raises(ValueError, match=r"^region_center .* too far from the origin"):
                Scenario(region_center=center)
        # the grid counts too
        with pytest.raises(ValueError, match="region_center"):
            Scenario(region_center=(1e7, 0.0), grid_resolution=1e-3, region_radius=0.01)

    def test_region_radius_must_keep_coordinates_resolved(self):
        # the radius alone counts too, at the origin: a float spaces 5e8 m by 6e-8 m, 1e17 m by 16 m
        assert Scenario(region_radius=5e8, grid_resolution=1e8).region_radius == 5e8
        for kwargs in (
            {"region_radius": 1e17, "grid_resolution": 1e16},
            {"region_radius": 6e8, "grid_resolution": 1e8},
            {"carrier_frequency": 1e300},  # a 1.5e-292 m element spacing
        ):
            with pytest.raises(ValueError, match=r"^region_radius .* is too large: coordinates up to"):
                Scenario(**kwargs)
        # a center that is too far alone is named as the center
        with pytest.raises(ValueError, match=r"^region_center .* too far from the origin"):
            Scenario(region_center=(1e10, 0.0), region_radius=1e7, grid_resolution=1e6)

    def test_alpha_stops_where_the_largest_pair_weight_overflows(self):
        # (2 * radius)^alpha: 8^alpha at 4 m overflows above 341.33, 17.32^alpha at the reference radius above 248.88
        for radius, ok, too_large in ((4.0, 340.0, 342.0), (Scenario().region_radius, 248.0, 249.0)):
            scenario = Scenario(region_radius=radius, alpha=ok)
            assert np.isfinite((2.0 * radius) ** scenario.alpha)
            with pytest.raises(ValueError, match="alpha must be at most"):
                Scenario(region_radius=radius, alpha=too_large)
        # below a 0.5 m radius no distance exceeds 1, so no alpha overflows
        assert Scenario(region_radius=0.4, alpha=1e300).alpha == 1e300


class TestPoseAndDeployment:
    def test_pose_coerces_to_float(self):
        for rows in ([[1, 2, 3]], np.array([[1, 2, 3]], dtype=np.int64)):
            dep = Deployment(rows)
            assert dep.poses.dtype == np.float64
            assert dep.poses.tolist() == [[1.0, 2.0, 3.0]]

    def test_pose_rejects_nonfinite(self):
        for column in range(3):
            for bad in (float("nan"), float("inf")):
                rows = [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
                rows[1][column] = bad
                with pytest.raises(ValueError, match="finite"):
                    Deployment(rows)

    def test_deployment_array_round_trip(self):
        rows = np.array([[1.0, -2.0, 0.5], [0.0, 3.0, 4.0]])
        dep = Deployment.from_array(rows)
        assert dep.node_count == 2
        assert np.array_equal(dep.poses, rows)
        assert np.array_equal(dep.as_array(), rows)

    def test_deployment_rejects_empty(self):
        for empty in ((), np.empty((0, 3))):
            with pytest.raises(ValueError):
                Deployment(empty)

    def test_deployment_rejects_other_shapes(self):
        for rows in ([[0.0, 0.0]], [0.0, 0.0, 0.0], np.zeros((1, 1, 3)), 0.0):
            with pytest.raises(ValueError, match=r"\(J, 3\)"):
                Deployment(rows)

    def test_poses_are_read_only(self):
        dep = Deployment([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match="read-only"):
            dep.poses[0, 0] = 5.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            dep.poses = np.zeros((1, 3))
        copy = dep.as_array()
        copy[0, 0] = 5.0
        assert dep.poses[0, 0] == 1.0

    def test_from_array_copies_its_input(self):
        rows = np.array([[1.0, 2.0, 3.0]])
        dep = Deployment.from_array(rows)
        rows[0, 0] = 9.0
        assert dep.poses[0, 0] == 1.0
        assert rows.flags.writeable

    def test_equality_compares_values(self):
        rows = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        assert Deployment(rows) == Deployment(np.array(rows))
        assert Deployment(rows) != Deployment([[1.0, 2.0, 3.5], [4.0, 5.0, 6.0]])
        assert Deployment(rows) != Deployment(rows[:1])
        assert Deployment(rows) != rows

    def test_violations_flag_out_of_region_and_bad_theta(self):
        s = Scenario()
        dep = Deployment([[s.region_radius * 2, 0.0, 0.0], [0.0, 0.0, -0.5], [1.0, 1.0, 1.0]])
        msgs = deployment_violations(dep, s)
        assert len(msgs) == 2
        assert "node 0" in msgs[0] and "node 1" in msgs[1]

    def test_violations_empty_for_feasible(self):
        s = Scenario()
        assert deployment_violations(midpoint_baseline(s), s) == []


# ---------------------------------------------------------------- element placement


class TestAntennaPositions:
    def test_horizontal_offsets_exact(self):
        pts = one_node_layout(0.0, 0.0, 0.0, 4, 0.0625)
        assert pts[:, 0].tolist() == [-0.09375, -0.03125, 0.03125, 0.09375]
        assert np.array_equal(pts[:, 1], np.zeros(4))

    def test_vertical_offsets(self):
        pts = one_node_layout(0.0, 0.0, math.pi / 2, 4, 0.0625)
        assert np.allclose(pts[:, 0], 0.0, atol=1e-16)
        assert pts[:, 1].tolist() == [-0.09375, -0.03125, 0.03125, 0.09375]

    def test_generic_pose_matches_oracle(self):
        pts = one_node_layout(3.0, -2.0, 0.7, 4, 0.0625)
        assert np.allclose(pts, ula_positions_oracle(3.0, -2.0, 0.7, 4, 0.0625), atol=1e-15)
        assert np.allclose(pts.mean(axis=0), [3.0, -2.0], atol=1e-12)
        gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert np.allclose(gaps, 0.0625, rtol=1e-12)

    def test_translation_and_rotation_equivariance(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            x, y, theta, phi = rng.uniform(-5, 5, 4)
            base = one_node_layout(0.0, 0.0, theta, 5, 0.21)
            shifted = one_node_layout(x, y, theta, 5, 0.21)
            assert np.allclose(shifted, base + [x, y], atol=1e-12)
            rot = np.array(
                [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
            )
            rotated = one_node_layout(0.0, 0.0, wrap_angle(theta + phi), 5, 0.21)
            assert np.allclose(rotated, base @ rot.T, atol=1e-12)

    def test_single_element_sits_at_pose(self):
        pts = one_node_layout(1.5, 2.5, 1.0, 1, 0.1)
        assert np.array_equal(pts, [[1.5, 2.5]])

    def test_layout_is_node_major(self):
        # each node's block is, bit for bit, that node alone
        rng = np.random.default_rng(3)
        for s in (Scenario(), Scenario(node_count=5, antennas_per_node=7)):
            dep = random_deployment(s, rng)
            layout = deployment_layout(dep, s)
            n = s.antennas_per_node
            assert layout.shape == (n * s.node_count, 2)
            for j, pose in enumerate(dep.poses):
                block = layout[n * j : n * (j + 1)]
                assert np.array_equal(block, one_node_layout(*pose, n, s.element_spacing))
                assert np.allclose(block, ula_positions_oracle(*pose, n, s.element_spacing), atol=1e-12)


# ---------------------------------------------------------------- steering


class TestSteering:
    def test_unit_norm_randomized(self):
        s = Scenario()
        rng = np.random.default_rng(12)
        for _ in range(50):
            dep = random_deployment(s, rng)
            layout = deployment_layout(dep, s)
            target = uniform_disk(rng, 1, s.region_center, s.region_radius)[0]
            a = steering_vector(layout, target, s.wavelength)
            assert abs(np.linalg.norm(a) - 1.0) < 1e-12

    def test_single_element_wavelength_range(self):
        lam = wavelength_of(2.4e9)
        a = steering_vector(np.array([[0.0, 0.0]]), (lam, 0.0), lam)
        assert a.shape == (1,)
        assert abs(a[0] - 1.0) < 1e-12

    def test_matches_scalar_loop_oracle(self):
        s = Scenario()
        rng = np.random.default_rng(99)
        dep = random_deployment(s, rng)
        layout = deployment_layout(dep, s)
        target = (1.25, -3.5)
        a = steering_vector(layout, target, s.wavelength)
        assert np.allclose(a, steering_oracle(layout, target, s.wavelength), atol=1e-13)

    def test_coincident_target_rejected(self):
        layout = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DegenerateGeometryError):
            steering_vector(layout, (1.0, 0.0), 0.125)

    def test_matrix_columns_match_single_target_path(self):
        s = Scenario()
        rng = np.random.default_rng(3)
        layout = deployment_layout(random_deployment(s, rng), s)
        targets = uniform_disk(rng, 8, s.region_center, s.region_radius)
        mat = steering_matrix(layout, targets, s.wavelength)
        assert mat.shape == (12, 8)
        for k, t in enumerate(targets):
            assert np.array_equal(mat[:, k], steering_vector(layout, t, s.wavelength))
        flat = steering_matrix(layout, targets[0], s.wavelength)  # one target as a 1-D array
        assert flat.shape == (12, 1)
        assert np.array_equal(flat[:, 0], mat[:, 0])

    def test_rejects_bad_wavelength(self):
        with pytest.raises(ValueError):
            steering_vector(np.array([[0.0, 0.0]]), (1.0, 1.0), 0.0)

    def test_matrix_rejects_a_layout_of_three_columns(self):
        with pytest.raises(ValueError, match=r"layout must be a non-empty \(M, 2\) array, got shape \(4, 3\)"):
            steering_matrix(np.ones((4, 3)), (1.0, 1.0), 0.125)


# ---------------------------------------------------------------- coverage grid


class TestCoverageGrid:
    def test_tiny_radius_center_only(self):
        g = coverage_grid((0.0, 0.0), 0.5, 1.0)
        assert np.array_equal(g, [[0.0, 0.0]])

    def test_unit_radius_five_points(self):
        g = coverage_grid((0.0, 0.0), 1.0, 1.0)
        assert len(g) == 5
        assert lattice_oracle((0.0, 0.0), 1.0, 1.0) == {tuple(p) for p in g}

    def test_reference_region_count_frozen(self):
        r = 30.0 / (2.0 * math.sqrt(3.0))
        g = coverage_grid((0.0, 0.0), r, 1.0)
        assert len(g) == 241
        assert lattice_oracle((0.0, 0.0), r, 1.0) == {tuple(p) for p in g}

    def test_row_major_order_and_anchor(self):
        g = coverage_grid((0.5, -0.25), 3.2, 0.8)
        keys = list(zip(g[:, 1].tolist(), g[:, 0].tolist()))
        assert keys == sorted(keys)
        assert any(np.array_equal(p, [0.5, -0.25]) for p in g)

    def test_first_point_of_reference_grid(self):
        r = 30.0 / (2.0 * math.sqrt(3.0))
        g = coverage_grid((0.0, 0.0), r, 1.0)
        assert np.array_equal(g[0], [-3.0, -8.0])
        assert np.array_equal(g[-1], [3.0, 8.0])

    def test_points_distinct_and_in_disk(self):
        g = coverage_grid((2.0, 1.0), 4.7, 0.9)
        assert len({tuple(p) for p in g}) == len(g)
        assert np.all(np.hypot(g[:, 0] - 2.0, g[:, 1] - 1.0) <= 4.7)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            coverage_grid((0.0, 0.0), 0.0, 1.0)
        with pytest.raises(ValueError):
            coverage_grid((0.0, 0.0), 1.0, -1.0)


# ---------------------------------------------------------------- midpoint baseline


class TestMidpointBaseline:
    def test_positions_match_triangle_oracle(self):
        s = Scenario()
        dep = midpoint_baseline(s)
        got = np.array(sorted(map(tuple, dep.poses[:, :2])))
        want = np.array(sorted(map(tuple, tangency_points_oracle(s.region_radius))))
        assert np.allclose(got, want, atol=1e-12)

    def test_on_circle_with_equality(self):
        s = Scenario()
        for x, y, _ in midpoint_baseline(s).poses:
            assert math.hypot(x, y) == pytest.approx(s.region_radius, rel=1e-12)

    def test_pairwise_distances_equilateral(self):
        s = Scenario()
        pts = midpoint_baseline(s).poses[:, :2]
        want = s.region_radius * math.sqrt(3.0)
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(pts[i] - pts[j]) == pytest.approx(want, rel=1e-12)

    def test_arrays_tangent_to_circle(self):
        # element line perpendicular to the radius at each tangency point
        s = Scenario()
        for x, y, theta in midpoint_baseline(s).poses:
            radial = np.array([x, y]) / s.region_radius
            line = np.array([math.cos(theta), math.sin(theta)])
            assert abs(radial @ line) < 1e-12

    def test_respects_center_offset(self):
        s = Scenario(region_center=(5.0, -2.0), region_radius=4.0)
        for x, y, _ in midpoint_baseline(s).poses:
            assert math.hypot(x - 5.0, y + 2.0) == pytest.approx(4.0, rel=1e-12)

    def test_rejects_non_three_node_scenarios(self):
        with pytest.raises(UnsupportedConfigurationError):
            midpoint_baseline(Scenario(node_count=4))


# ---------------------------------------------------------------- random deployment


class TestRandomDeployment:
    def test_always_feasible(self):
        s = Scenario()
        rng = np.random.default_rng(21)
        for _ in range(200):
            dep = random_deployment(s, rng)
            assert dep.node_count == s.node_count
            assert deployment_violations(dep, s) == []

    def test_deterministic_given_seed(self):
        s = Scenario()
        a = random_deployment(s, np.random.default_rng(5))
        b = random_deployment(s, np.random.default_rng(5))
        assert a == b

    def test_distinct_across_seeds(self):
        s = Scenario()
        a = random_deployment(s, np.random.default_rng(5))
        b = random_deployment(s, np.random.default_rng(6))
        assert a != b

    def test_disk_sampler_mean_near_center(self):
        r = 8.66
        pts = uniform_disk(np.random.default_rng(11), 100_000, (0.0, 0.0), r)
        assert np.all(np.hypot(pts[:, 0], pts[:, 1]) <= r)
        assert abs(pts[:, 0].mean()) < 0.05 * r
        assert abs(pts[:, 1].mean()) < 0.05 * r
        # uniform over the disk: E[range^2] = r^2/2
        assert np.mean(pts[:, 0] ** 2 + pts[:, 1] ** 2) == pytest.approx(r * r / 2, rel=0.02)

    def test_disk_sampler_respects_center(self):
        pts = uniform_disk(np.random.default_rng(2), 500, (10.0, -4.0), 2.0)
        assert np.all(np.hypot(pts[:, 0] - 10.0, pts[:, 1] + 4.0) <= 2.0)
