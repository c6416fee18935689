"""Distance-weighted correlation metric tests.

The max-scan is checked against an exhaustive python-loop pair oracle; the
covariance-separability and overlap-decomposition identities are verified
against explicit outer-product matrices.
"""

import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from isacdeploy import correlation
from isacdeploy.correlation import (
    BLOCK_ROWS,
    CorrelationReport,
    GridCodebook,
    UndefinedCorrelationError,
    build_codebook,
    frobenius_separability,
    max_weighted_correlation,
    overlap_decompose,
    pearson,
    weight_slabs,
    weighted_correlation,
)
from isacdeploy.geometry import (
    Deployment,
    Scenario,
    coverage_grid,
    deployment_layout,
    random_deployment,
    steering_matrix,
    steering_vector,
)


def random_unit(rng, n):
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def orthogonal_unit(rng, a):
    b = rng.standard_normal(a.size) + 1j * rng.standard_normal(a.size)
    b = b - a * np.vdot(a, b)
    return b / np.linalg.norm(b)


def pair_scan_oracle(codebook):
    """Exhaustive python-loop max over unordered grid pairs."""
    n = len(codebook.grid)
    best_val, best_pair = -1.0, None
    for i in range(n):
        for j in range(i + 1, n):
            ip = sum(
                codebook.steering[k, i].conjugate() * codebook.steering[k, j]
                for k in range(codebook.steering.shape[0])
            )
            d = math.hypot(
                codebook.grid[i, 0] - codebook.grid[j, 0],
                codebook.grid[i, 1] - codebook.grid[j, 1],
            )
            val = abs(ip) * d**0.05
            if val > best_val:
                best_val, best_pair = val, (i, j)
    return best_val, best_pair


def full_weights(points, alpha):
    """The symmetric n x n matrix d_ij^alpha, zero diagonal, in one broadcast."""
    weights = np.hypot(points[:, None, 0] - points[None, :, 0], points[:, None, 1] - points[None, :, 1])
    weights **= alpha
    np.fill_diagonal(weights, 0.0)
    return weights


def slices(full):
    """The scan's block slabs upper[i0:i1, i0:] of upper = np.triu(full, 1)."""
    n = len(full)
    upper = np.triu(full, 1)
    return tuple(upper[i0 : min(i0 + BLOCK_ROWS, n - 1), i0:] for i0 in range(0, n - 1, BLOCK_ROWS))


def masked_scan_oracle(book, alpha):
    """Reference scan over blocks of the full symmetric weights, each block
    masked with a -1 sentinel on and below its diagonal, then its first argmax."""
    steering, points = book.steering, book.grid
    n = len(points)
    conj_rows = steering.conj().T
    best_value, best_pair = -1.0, (0, 1)
    for i0 in range(0, n - 1, BLOCK_ROWS):
        i1 = min(i0 + BLOCK_ROWS, n - 1)
        rows = points[i0:i1]
        weights = np.hypot(rows[:, 0:1] - points[i0:, 0], rows[:, 1:2] - points[i0:, 1])
        weights **= alpha
        values = np.abs(np.matmul(conj_rows[i0:i1], steering[:, i0:])) * weights
        values[:, : i1 - i0][np.tri(i1 - i0, dtype=bool)] = -1.0
        r, c = np.unravel_index(int(np.argmax(values)), values.shape)
        if values[r, c] > best_value:
            best_value, best_pair = float(values[r, c]), (i0 + int(r), i0 + int(c))
    return CorrelationReport(max_value=best_value, arg_pair=best_pair)


def slab_weight(book, i, j):
    """Weight of grid pair i < j, read from the codebook's slabs."""
    b = i // BLOCK_ROWS
    return book.weight_slabs[b][i - b * BLOCK_ROWS, j - b * BLOCK_ROWS]


@pytest.fixture(scope="module")
def small_scenario():
    # a few dozen grid points keeps the O(n^2) python oracle fast
    return Scenario(region_radius=3.0)


# ---------------------------------------------------------------- codebook


class TestCodebook:
    def test_columns_unit_norm(self, small_scenario):
        dep = random_deployment(small_scenario, np.random.default_rng(1))
        book = build_codebook(dep, small_scenario)
        norms = np.linalg.norm(book.steering, axis=0)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_weights_diagonal_zero(self, small_scenario):
        dep = random_deployment(small_scenario, np.random.default_rng(2))
        book = build_codebook(dep, small_scenario)
        for slab in book.weight_slabs:
            # the block's own square holds only its pairs j > i: zero on and below the diagonal
            square = slab[:, : len(slab)]
            assert np.array_equal(np.tril(square), np.zeros_like(square))
            assert np.all(square[np.triu_indices(len(slab), 1)] > 0.0)

    def test_weight_for_five_meter_pair(self, small_scenario):
        dep = random_deployment(small_scenario, np.random.default_rng(3))
        book = build_codebook(dep, small_scenario)
        i = next(k for k, p in enumerate(book.grid) if tuple(p) == (-2.0, 0.0))
        j = next(k for k, p in enumerate(book.grid) if tuple(p) == (3.0, 0.0))
        assert slab_weight(book, min(i, j), max(i, j)) == 1.0837983867343681  # 5**0.05

    def test_codebooks_of_one_grid_share_read_only_weights(self, small_scenario):
        base = build_codebook(random_deployment(small_scenario, np.random.default_rng(4)), small_scenario)
        other = replace(small_scenario, node_count=4, snr_db=20.0)
        again = build_codebook(random_deployment(other, np.random.default_rng(5)), other)
        assert again.grid is base.grid
        assert again.weight_slabs is base.weight_slabs
        assert not base.grid.flags.writeable
        assert not any(slab.flags.writeable for slab in base.weight_slabs)
        with pytest.raises(ValueError):
            base.weight_slabs[0][0, 1] = 0.0

    def test_rejects_grid_point_on_antenna(self):
        s = Scenario(region_radius=3.0, element_spacing=1.0)
        # element offsets +-0.5, +-1.5 from node at (0.5, 0): elements hit (0,0), (1,0), (2,0), (-1,0)
        dep = Deployment([[0.5, 0.0, 0.0], [0.5, 1.5, 0.25], [-1.0, -1.0, 0.5]])
        from isacdeploy.geometry import DegenerateGeometryError

        with pytest.raises(DegenerateGeometryError):
            build_codebook(dep, s)


# ---------------------------------------------------------------- pair metric


class TestWeightedCorrelation:
    def test_zero_distance_annihilates(self, small_scenario):
        dep = random_deployment(small_scenario, np.random.default_rng(5))
        layout = deployment_layout(dep, small_scenario)
        a = steering_vector(layout, (0.5, 0.5), small_scenario.wavelength)
        assert weighted_correlation(a, a, 0.0, 0.05) == 0.0

    def test_orthogonal_vectors(self):
        rng = np.random.default_rng(6)
        a = random_unit(rng, 12)
        b = orthogonal_unit(rng, a)
        assert weighted_correlation(a, b, 7.0, 0.05) < 1e-12

    def test_matches_scalar_oracle_at_seven_meters(self, small_scenario):
        rng = np.random.default_rng(7)
        dep = random_deployment(small_scenario, rng)
        layout = deployment_layout(dep, small_scenario)
        a = steering_vector(layout, (1.0, -2.0), small_scenario.wavelength)
        b = steering_vector(layout, (-1.5, 2.5), small_scenario.wavelength)
        ip = sum(a[k].conjugate() * b[k] for k in range(12))
        assert weighted_correlation(a, b, 7.0, 0.05) == pytest.approx(abs(ip) * 7.0**0.05, rel=1e-13)

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        a, b = random_unit(rng, 8), random_unit(rng, 8)
        assert weighted_correlation(a, b, 3.0, 0.1) == pytest.approx(
            weighted_correlation(b, a, 3.0, 0.1), rel=1e-14
        )

    def test_cauchy_schwarz_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            a, b = random_unit(rng, 12), random_unit(rng, 12)
            assert weighted_correlation(a, b, 1.0, 0.0) <= 1.0 + 1e-12

    def test_rejects_mismatched_lengths_and_negative_distance(self):
        with pytest.raises(ValueError):
            weighted_correlation(np.ones(3), np.ones(4), 1.0, 0.05)
        with pytest.raises(ValueError):
            weighted_correlation(np.ones(3), np.ones(3), -1.0, 0.05)


class TestMaxWeightedCorrelation:
    def test_two_point_grid_single_pair(self, small_scenario):
        dep = random_deployment(small_scenario, np.random.default_rng(10))
        layout = deployment_layout(dep, small_scenario)
        grid = np.array([[0.0, 0.0], [2.0, 1.0]])
        from isacdeploy.geometry import steering_matrix

        book = GridCodebook(
            grid=grid,
            steering=steering_matrix(layout, grid, small_scenario.wavelength),
            weight_slabs=weight_slabs(grid, 0.05),
        )
        report = max_weighted_correlation(book)
        assert report.arg_pair == (0, 1)
        a, b = book.steering[:, 0], book.steering[:, 1]
        assert report.max_value == pytest.approx(
            weighted_correlation(a, b, math.hypot(2.0, 1.0), 0.05), rel=1e-13
        )

    def test_matches_exhaustive_scan(self, small_scenario):
        for seed in (11, 12, 13):
            dep = random_deployment(small_scenario, np.random.default_rng(seed))
            book = build_codebook(dep, small_scenario)
            report = max_weighted_correlation(book)
            oracle_val, oracle_pair = pair_scan_oracle(book)
            assert report.max_value == pytest.approx(oracle_val, rel=5e-15)
            assert report.arg_pair == oracle_pair

    def test_report_self_consistent(self, small_scenario):
        dep = random_deployment(small_scenario, np.random.default_rng(14))
        book = build_codebook(dep, small_scenario)
        report = max_weighted_correlation(book)
        i, j = report.arg_pair
        gram = np.abs(np.vdot(book.steering[:, i], book.steering[:, j]))
        assert i < j
        assert report.max_value == pytest.approx(gram * slab_weight(book, i, j), rel=1e-13)

    def test_collocated_nodes_flag_most_distant_ambiguous_pair(self):
        s = Scenario(region_radius=3.0)
        book = build_codebook(Deployment([[0.25, 0.0, 0.0]] * 3), s)
        report = max_weighted_correlation(book)
        i, j = report.arg_pair
        pi, pj = book.grid[i], book.grid[j]
        # a perfectly correlated pair at the largest possible separation wins
        gram = np.abs(np.vdot(book.steering[:, i], book.steering[:, j]))
        assert gram > 1.0 - 1e-12
        assert math.hypot(pi[0] - pj[0], pi[1] - pj[1]) == 6.0
        assert report.max_value == pytest.approx(6.0**0.05, rel=1e-12)
        # the mirror pair about the (collinear) array axis is among the ambiguities
        top = next(k for k, p in enumerate(book.grid) if tuple(p) == (0.0, 3.0))
        bot = next(k for k, p in enumerate(book.grid) if tuple(p) == (0.0, -3.0))
        mirror = np.abs(np.vdot(book.steering[:, bot], book.steering[:, top]))
        assert mirror > 1.0 - 1e-12

    @pytest.mark.parametrize("n", [2, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
    def test_matches_exhaustive_scan_across_block_edges(self, n):
        scenario = Scenario(region_radius=7.0)
        grid = coverage_grid(scenario.region_center, scenario.region_radius, scenario.grid_resolution)[:n]
        assert len(grid) == n
        layout = deployment_layout(random_deployment(scenario, np.random.default_rng(n)), scenario)
        book = GridCodebook(
            grid=grid,
            steering=steering_matrix(layout, grid, scenario.wavelength),
            weight_slabs=weight_slabs(grid, 0.05),
        )
        report = max_weighted_correlation(book)
        oracle_val, oracle_pair = pair_scan_oracle(book)
        assert report.max_value == pytest.approx(oracle_val, rel=5e-15)
        assert report.arg_pair == oracle_pair

    def test_matches_full_gram_scan_bit_for_bit(self):
        # the unblocked scan over the full matrix: every strict-upper pair, first argmax
        for scenario in (Scenario(), Scenario(grid_resolution=0.7)):
            rng = np.random.default_rng(16)
            for _ in range(5):
                book = build_codebook(random_deployment(scenario, rng), scenario)
                rows, cols = np.triu_indices(len(book.grid), k=1)
                gram = np.abs(book.steering.conj().T @ book.steering)
                values = gram[rows, cols] * full_weights(book.grid, scenario.alpha)[rows, cols]
                k = int(np.argmax(values))
                report = max_weighted_correlation(book)
                assert report.max_value == values[k]
                assert report.arg_pair == (rows[k], cols[k])

    @pytest.mark.parametrize(
        "scenario, layouts",
        [
            (Scenario(), 6),
            (Scenario(grid_resolution=0.3, alpha=0.37), 2),
            (Scenario(alpha=0.0), 3),
            # the closest pairs' weights, 0.05^alpha, are subnormal at alpha = 240 and 0 at 300
            (Scenario(region_radius=0.5, grid_resolution=0.05, alpha=240.0), 3),
            (Scenario(region_radius=0.5, grid_resolution=0.05, alpha=300.0), 3),
        ],
    )
    def test_matches_the_masked_scan_bit_for_bit(self, scenario, layouts):
        rng = np.random.default_rng(25)
        for _ in range(layouts):
            book = build_codebook(random_deployment(scenario, rng), scenario)
            report = max_weighted_correlation(book)
            oracle = masked_scan_oracle(book, scenario.alpha)
            assert report.max_value.hex() == oracle.max_value.hex()
            assert report.arg_pair == oracle.arg_pair
        smallest = min(slab[np.triu_indices(len(slab), 1, slab.shape[1])].min() for slab in book.weight_slabs)
        assert (smallest < np.finfo(float).tiny) == (scenario.alpha >= 240.0)
        assert (smallest == 0.0) == (scenario.alpha == 300.0)

    @pytest.mark.parametrize("first, second", [((3, 10), (BLOCK_ROWS + 5, 100)), ((3, 100), (5, 6))])
    def test_ties_resolve_to_the_lexicographically_first_pair(self, first, second):
        n = 2 * BLOCK_ROWS + 1
        weights = np.full((n, n), 0.5)
        np.fill_diagonal(weights, 0.0)
        for i, j in (first, second):
            weights[i, j] = weights[j, i] = 2.0
        book = GridCodebook(
            grid=np.column_stack((np.arange(n, dtype=float), np.zeros(n))),
            steering=np.ones((1, n), dtype=complex),
            weight_slabs=slices(weights),
        )
        assert max_weighted_correlation(book) == CorrelationReport(max_value=2.0, arg_pair=first)

    def test_all_zero_values_report_the_first_pair(self):
        # the masked diagonal must lose even to a zero-valued pair
        n = BLOCK_ROWS + 1
        book = GridCodebook(
            grid=np.column_stack((np.arange(n, dtype=float), np.zeros(n))),
            steering=np.ones((1, n), dtype=complex),
            weight_slabs=slices(np.zeros((n, n))),
        )
        assert max_weighted_correlation(book) == CorrelationReport(max_value=0.0, arg_pair=(0, 1))

    def test_rejects_single_point_grid(self, small_scenario):
        dep = random_deployment(small_scenario, np.random.default_rng(15))
        layout = deployment_layout(dep, small_scenario)
        from isacdeploy.geometry import steering_matrix

        grid = np.array([[0.0, 0.0]])
        book = GridCodebook(
            grid=grid,
            steering=steering_matrix(layout, grid, small_scenario.wavelength),
            weight_slabs=weight_slabs(grid, 0.05),
        )
        with pytest.raises(ValueError):
            max_weighted_correlation(book)


class TestWeightSlabs:
    """The packed upper triangle holds exactly the full matrix's scan slices."""

    @pytest.mark.parametrize("resolution", [1.0, 0.3])
    @pytest.mark.parametrize("n", [2, 3, 64, 65, 66, 129, 241])
    def test_slabs_equal_full_matrix_slices_bit_for_bit(self, n, resolution):
        scenario = Scenario(grid_resolution=resolution)
        grid = coverage_grid(scenario.region_center, scenario.region_radius, resolution)[:n]
        assert len(grid) == n
        for alpha in (0.05, 0.37):
            slabs = weight_slabs(grid, alpha)
            expected = slices(full_weights(grid, alpha))
            assert len(slabs) == len(expected) == -(-(n - 1) // BLOCK_ROWS)
            for slab, want in zip(slabs, expected):
                assert slab.shape == want.shape
                assert slab.tobytes() == want.tobytes()

    def test_fewer_than_two_points_give_no_slabs(self):
        assert weight_slabs(np.zeros((1, 2)), 0.05) == ()
        assert weight_slabs(np.zeros((0, 2)), 0.05) == ()

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError, match="alpha"):
            weight_slabs(np.zeros((3, 2)), -0.5)


class TestFineGridMemory:
    """At a 0.25 m grid (n = 3761) the weight slabs are the one O(n^2) array."""

    def test_weight_build_and_metric_peaks(self):
        scenario = Scenario(grid_resolution=0.25)
        grid = coverage_grid(scenario.region_center, scenario.region_radius, scenario.grid_resolution)
        n = len(grid)
        assert n == 3761
        layout = deployment_layout(random_deployment(scenario, np.random.default_rng(17)), scenario)
        steering = steering_matrix(layout, grid, scenario.wavelength)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            slabs = weight_slabs(grid, scenario.alpha)
            retained, weights_peak = (m - base for m in tracemalloc.get_traced_memory())
            book = GridCodebook(grid=grid, steering=steering, weight_slabs=slabs)
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            max_weighted_correlation(book)
            metric_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        packed = 8 * sum((min(i0 + BLOCK_ROWS, n - 1) - i0) * (n - i0) for i0 in range(0, n - 1, BLOCK_ROWS))
        assert sum(slab.nbytes for slab in slabs) == packed
        assert packed <= 58e6 < n * n * 8 / 1.9
        assert packed <= retained <= packed + 2**16
        assert weights_peak <= packed + 4 * BLOCK_ROWS * n * 8
        assert metric_peak <= 32 * 2**20


class TestScanBuffers:
    """Each thread scans into one pair of block buffers, reused from call to call."""

    @staticmethod
    def fresh_thread_report(book):
        # a new thread builds its own buffers, so nothing an earlier call left can reach the scan
        with ThreadPoolExecutor(1) as pool:
            return pool.submit(max_weighted_correlation, book).result()

    @staticmethod
    def books(resolution, seed, count):
        scenario = Scenario(grid_resolution=resolution)
        rng = np.random.default_rng(seed)
        return [build_codebook(random_deployment(scenario, rng), scenario) for _ in range(count)]

    def test_interleaved_grid_sizes_in_one_thread(self):
        scenario = Scenario()
        pair_grid = np.array([[0.0, 0.0], [2.0, 1.0]])
        layout = deployment_layout(random_deployment(scenario, np.random.default_rng(18)), scenario)
        pair_book = GridCodebook(
            grid=pair_grid,
            steering=steering_matrix(layout, pair_grid, scenario.wavelength),
            weight_slabs=weight_slabs(pair_grid, scenario.alpha),
        )
        coarse = self.books(1.0, 19, 3)
        (fine,) = self.books(0.25, 20, 1)
        sequence = [coarse[0], fine, coarse[1], pair_book, coarse[2]]
        assert [len(book.grid) for book in sequence] == [241, 3761, 241, 2, 241]
        for book in sequence:
            assert max_weighted_correlation(book) == self.fresh_thread_report(book)

    def test_two_threads_at_two_grid_sizes_match_the_serial_reports(self):
        # runs of one size make the threads scan grids of equal size at the same time
        books = [*self.books(1.0, 23, 4), *self.books(0.7, 24, 4)] * 4
        assert [len(book.grid) for book in books[:8]] == [241] * 4 + [489] * 4
        serial = [max_weighted_correlation(book) for book in books]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between as many numpy calls as possible
        try:
            for workers in (2, 2, 4):
                with ThreadPoolExecutor(workers) as pool:
                    assert list(pool.map(max_weighted_correlation, books, timeout=60)) == serial
        finally:
            sys.setswitchinterval(interval)

    def test_stale_buffer_contents_change_no_report(self):
        books = self.books(1.0, 25, 3)
        reports = [max_weighted_correlation(book) for book in books]
        for book, report in zip(books, reports):
            products, magnitudes = correlation._scan_buffers.pair
            products.fill(complex(np.nan, np.nan))
            magnitudes.fill(np.nan)
            assert max_weighted_correlation(book) == report

    @pytest.mark.parametrize("resolution", [1.0, 0.25])
    def test_a_warm_call_allocates_little_beyond_the_conjugate(self, resolution):
        # the block products and magnitudes (24 * 64 * n bytes) go into the thread's buffers
        (book,) = self.books(resolution, 26, 1)
        report = max_weighted_correlation(book)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            assert max_weighted_correlation(book) == report
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= book.steering.nbytes + 64 * 2**10


# ---------------------------------------------------------------- pearson


class TestPearson:
    def test_perfect_linear(self):
        xs = np.array([0.0, 1.0, 2.0, 5.0])
        assert pearson(xs, 2 * xs + 3) == pytest.approx(1.0, abs=1e-12)

    def test_perfect_anticorrelation(self):
        xs = np.array([0.0, 1.0, 2.0, 5.0])
        assert pearson(xs, -xs) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_case(self):
        # cov = 4, var_x = var_y = 5 -> 4/5
        assert pearson((1, 2, 3, 4), (1, 3, 2, 4)) == pytest.approx(0.8, rel=1e-14)

    def test_bounded(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            xs, ys = rng.standard_normal(20), rng.standard_normal(20)
            assert -1.0 <= pearson(xs, ys) <= 1.0

    def test_power_of_two_scales_change_no_bit(self):
        # values near the largest float (a max_rho at a large alpha) give the unit-scale
        # coefficient of the plain formula instead of overflowing its sums of squares
        rng = np.random.default_rng(17)
        for _ in range(25):
            xs, ys = rng.uniform(0.5, 2.0, 40), rng.standard_normal(40)
            dx, dy = xs - xs.mean(), ys - ys.mean()
            want = float(np.clip((dx @ dy) / np.sqrt((dx @ dx) * (dy @ dy)), -1.0, 1.0))
            assert pearson(xs, ys) == want
            for k in (-900, 1000, 1020):
                assert pearson(np.ldexp(xs, k), ys) == want
                assert pearson(xs, np.ldexp(ys, k)) == want

    def test_constant_input_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson((1.0, 1.0, 1.0), (1.0, 2.0, 3.0))
        with pytest.raises(UndefinedCorrelationError):
            pearson((1.0, 2.0, 3.0), (4.0, 4.0, 4.0))

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            pearson((1.0, 2.0), (1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            pearson((1.0,), (2.0,))


# ---------------------------------------------------------------- separability


class TestFrobeniusSeparability:
    def test_identical_vectors(self):
        a = random_unit(np.random.default_rng(17), 12)
        assert frobenius_separability(a, a, 1.0) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_pair_unit_power(self):
        rng = np.random.default_rng(18)
        a = random_unit(rng, 12)
        b = orthogonal_unit(rng, a)
        assert frobenius_separability(a, b, 1.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_matches_outer_product_frobenius_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            a, b = random_unit(rng, 12), random_unit(rng, 12)
            e = float(rng.uniform(0.1, 10.0))
            brute = np.linalg.norm(e * (np.outer(a, a.conj()) - np.outer(b, b.conj())))
            assert abs(frobenius_separability(a, b, e) - brute) < 1e-10

    def test_monotone_decreasing_in_overlap(self):
        rng = np.random.default_rng(20)
        a = random_unit(rng, 12)
        perp = orthogonal_unit(rng, a)
        values = []
        for t in np.linspace(0.0, 1.0, 9):
            b = math.cos(t * math.pi / 2) * a + math.sin(t * math.pi / 2) * perp
            values.append(frobenius_separability(a, b / np.linalg.norm(b), 2.0))
        assert all(x <= y + 1e-12 for x, y in zip(values, values[1:]))

    def test_rejects_non_unit_input(self):
        a = random_unit(np.random.default_rng(21), 8)
        with pytest.raises(ValueError):
            frobenius_separability(2 * a, a, 1.0)


# ---------------------------------------------------------------- decomposition


class TestOverlapDecompose:
    def test_identical_vector(self):
        a = random_unit(np.random.default_rng(22), 12)
        coeff, residual = overlap_decompose(a, a)
        assert coeff == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(residual) < 1e-12

    def test_orthogonal_vector(self):
        rng = np.random.default_rng(23)
        a = random_unit(rng, 12)
        b = orthogonal_unit(rng, a)
        coeff, residual = overlap_decompose(a, b)
        assert abs(coeff) < 1e-12
        assert np.allclose(residual, b, atol=1e-12)

    def test_identities_on_random_pairs(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            a, b = random_unit(rng, 12), random_unit(rng, 12)
            coeff, residual = overlap_decompose(a, b)
            assert coeff == complex(np.vdot(a, b))
            assert abs(np.vdot(a, residual)) < 1e-12
            assert abs(np.vdot(residual, residual).real - (1.0 - abs(coeff) ** 2)) < 1e-12

    def test_projection_power_bound_terms(self):
        # the cross and residual terms of the projected-power expansion are
        # bounded by the spectral norm of any Hermitian PSD matrix
        rng = np.random.default_rng(25)
        for _ in range(50):
            a, b = random_unit(rng, 12), random_unit(rng, 12)
            coeff, residual = overlap_decompose(a, b)
            w = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
            t = w @ w.conj().T
            spec = np.linalg.norm(t, 2)
            overlap = abs(coeff)
            leak = math.sqrt(max(0.0, 1.0 - overlap**2))
            cross = 2.0 * (coeff.conjugate() * (a.conj() @ t @ residual)).real
            assert abs(cross) <= 2.0 * spec * overlap * leak + 1e-9
            tail = (residual.conj() @ t @ residual).real
            assert abs(tail) <= spec * leak**2 + 1e-9
            # exact expansion of the projected power of b
            g_b = (b.conj() @ t @ b).real
            g_a = (a.conj() @ t @ a).real
            assert g_b == pytest.approx(overlap**2 * g_a + cross + tail, rel=1e-10, abs=1e-10)

    def test_rejects_non_unit_input(self):
        a = random_unit(np.random.default_rng(26), 8)
        with pytest.raises(ValueError):
            overlap_decompose(a, 3 * a)


# ---------------------------------------------------------------- helpers


def mirrored(slabs, n):
    """The full symmetric (n, n) matrix w + w.T held by the strict-upper slabs w."""
    weights = np.zeros((n, n))
    for i0, slab in zip(range(0, n - 1, BLOCK_ROWS), slabs, strict=True):
        weights[i0 : i0 + len(slab), i0:] = slab
    return weights + weights.T


class TestDistanceHelpers:
    def test_pairwise_distances(self):
        pts = np.array([[0.0, 0.0], [3.0, 4.0], [0.0, 1.0]])
        d = mirrored(weight_slabs(pts, 1.0), 3)
        assert d[0, 1] == 5.0
        assert d[0, 2] == 1.0
        assert d[1, 2] == math.hypot(3.0, 3.0)
        assert d.tobytes() == full_weights(pts, 1.0).tobytes()
        assert np.array_equal(np.diag(d), np.zeros(3))

    @pytest.mark.parametrize("n", [0, 1, 2, 65, 66, 200])
    def test_full_matrix_mirrors_the_slabs(self, n):
        pts = np.random.default_rng(n).uniform(-7.0, 7.0, size=(n, 2))
        for alpha in (0.0, 0.05, 1.0, 2.0):
            assert mirrored(weight_slabs(pts, alpha), n).tobytes() == full_weights(pts, alpha).tobytes()

    def test_weights_alpha_zero_unit_off_diagonal(self):
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        (slab,) = weight_slabs(pts, 0.0)
        assert slab.tolist() == [[0.0, 1.0]]
        assert full_weights(pts, 0.0)[0, 1] == 1.0

    def test_report_invariants(self):
        report = CorrelationReport(max_value=0.5, arg_pair=(1, 4))
        assert report.arg_pair == (1, 4)
        with pytest.raises(ValueError):
            CorrelationReport(max_value=0.5, arg_pair=(4, 4))
        with pytest.raises(ValueError):
            CorrelationReport(max_value=-0.5, arg_pair=(0, 1))
