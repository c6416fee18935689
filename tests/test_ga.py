"""Genetic-algorithm operator and end-to-end tests.

Operator math (SBX spread factor, polynomial-mutation perturbation) is pinned
with scripted random streams against hand-evaluated values; the evolutionary
loop is pinned on determinism, elitism monotonicity, evaluation accounting,
feasibility of every result, and one seeded run's exact trace and best poses.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isacdeploy import ga
from isacdeploy.correlation import build_codebook, max_weighted_correlation
from isacdeploy.ga import (
    GaParams,
    GaResult,
    fitness,
    polynomial_mutation,
    project_feasible,
    run_ga,
    sbx_crossover,
    tournament_select,
)
from isacdeploy.geometry import (
    TWO_PI,
    Deployment,
    Scenario,
    deployment_violations,
    midpoint_baseline,
    random_deployment,
)


class ScriptedRng:
    """Plays back pre-seeded uniform/integer blocks; fails when over-consumed."""

    def __init__(self, floats=(), ints=()):
        self.floats = [np.asarray(f, dtype=float) for f in floats]
        self.ints = [np.asarray(i) for i in ints]

    def random(self, size=None):
        block = self.floats.pop(0)
        if size is None:
            return float(block)
        return block.reshape(size)

    def integers(self, low, high=None, size=None):
        return self.ints.pop(0).reshape(size)


@pytest.fixture(scope="module")
def small_scenario():
    return Scenario(region_radius=4.0)


def pair_scan_fitness_oracle(codebook):
    """Exhaustive python-loop evaluation of the worst weighted pair."""
    n = len(codebook.grid)
    best = -1.0
    for i in range(n):
        for j in range(i + 1, n):
            ip = abs(np.vdot(codebook.steering[:, i], codebook.steering[:, j]))
            d = math.hypot(*(codebook.grid[i] - codebook.grid[j]))
            best = max(best, ip * d**0.05)
    return best


# ---------------------------------------------------------------- encoding


class TestEncoding:
    def test_gene_layout_is_pose_major(self):
        # a (J, 3) draw block fills the rows in order: gate block entry 5 is node 1's theta
        s = Scenario(region_radius=2.0, node_count=2)
        poses = np.array([[1.0, 0.0, 3.0], [0.0, 1.0, 6.0]])
        rng = ScriptedRng(floats=[[1.0, 1.0, 1.0, 1.0, 1.0, 0.0], [0.5, 0.5, 0.5, 0.5, 0.5, 0.9]])
        out = polynomial_mutation(poses, 20.0, 0.5, s, rng)
        assert np.array_equal(out != poses, [[False, False, False], [False, False, True]])

    def test_decode_rejects_ragged_genes(self, small_scenario):
        genes = np.arange(7.0)
        with pytest.raises(ValueError):
            fitness(genes, small_scenario)
        with pytest.raises(ValueError):
            project_feasible(genes, small_scenario)
        with pytest.raises(ValueError):
            polynomial_mutation(genes, 20.0, 1.0, small_scenario, np.random.default_rng(0))


class TestBoundsAndProjection:
    def test_deployment_bounds_pattern(self):
        s = Scenario(region_radius=2.0, region_center=(5.0, -1.0))
        lower = np.tile([3.0, -3.0, 0.0], (3, 1))
        upper = np.tile([7.0, 1.0, TWO_PI], (3, 1))
        # the mutation box is the region's bounding square and [0, 2*pi]: its corners pass, beyond them fails
        for outside in (lower - 1e-6, upper + 1e-6):
            with pytest.raises(ValueError):
                polynomial_mutation(outside, 20.0, 1.0, s, np.random.default_rng(4))
        # mutated and projected genes: positions in the square, angles in [0, 2*pi)
        rng = np.random.default_rng(4)
        for genes in (lower, upper, random_deployment(s, rng).poses):
            out = project_feasible(polynomial_mutation(genes, 20.0, 1.0, s, rng), s)
            assert np.all(out >= lower) and np.all(out[:, 0] <= 7.0) and np.all(out[:, 1] <= 1.0)
            assert np.all(out[:, 2] < TWO_PI)

    def test_projection_keeps_feasible_genes(self, small_scenario):
        dep = random_deployment(small_scenario, np.random.default_rng(2))
        assert np.array_equal(project_feasible(dep.poses, small_scenario), dep.poses)

    def test_projection_clamps_then_scales_into_disk(self):
        s = Scenario(region_radius=2.0)
        projected = project_feasible(np.array([[9.0, 9.0, 7.0], [0.5, -3.0, -0.5], [0.0, 0.0, 1.0]]), s)
        # node 0: clamped to the (2, 2) corner, then scaled onto the circle
        assert math.hypot(projected[0, 0], projected[0, 1]) == pytest.approx(2.0, rel=1e-12)
        assert projected[0, 0] == projected[0, 1]
        assert projected[0, 2] == pytest.approx(7.0 - TWO_PI, rel=1e-12)
        # node 1: y clamped to -2, x kept, then radial scaling
        assert math.hypot(projected[1, 0], projected[1, 1]) == pytest.approx(2.0, rel=1e-12)
        assert projected[1, 2] == pytest.approx(TWO_PI - 0.5, rel=1e-12)
        # node 2 already feasible
        assert np.array_equal(projected[2], [0.0, 0.0, 1.0])

    def test_projection_respects_off_center_region(self):
        s = Scenario(region_radius=1.0, region_center=(5.0, -2.0), node_count=1)
        projected = project_feasible(np.array([[9.0, -2.0, 0.0]]), s)
        assert projected[0, 0] == pytest.approx(6.0, rel=1e-12)
        assert projected[0, 1] == pytest.approx(-2.0, abs=1e-12)

    def test_projected_deployment_passes_feasibility_check(self, small_scenario):
        rng = np.random.default_rng(3)
        for _ in range(25):
            genes = rng.uniform(-20.0, 20.0, size=(3, 3))
            dep = Deployment(project_feasible(genes, small_scenario))
            assert deployment_violations(dep, small_scenario) == []


# ---------------------------------------------------------------- selection


class TestTournamentSelect:
    def test_forced_sample_returns_fittest_index(self):
        rng = ScriptedRng(ints=[[0, 2]])
        assert tournament_select(np.array([5.0, 1.0, 3.0]), 2, rng) == 2

    def test_tie_breaks_to_lowest_index(self):
        rng = ScriptedRng(ints=[[2, 0]])
        assert tournament_select(np.array([1.0, 9.0, 1.0]), 2, rng) == 0

    def test_single_candidate_tournament(self):
        rng = ScriptedRng(ints=[[1]])
        assert tournament_select(np.array([5.0, 7.0, 3.0]), 1, rng) == 1

    def test_real_stream_selects_valid_low_fitness_index(self):
        rng = np.random.default_rng(4)
        fits = np.array([4.0, 2.0, 9.0, 1.0, 5.0])
        for _ in range(50):
            idx = tournament_select(fits, 3, rng)
            assert 0 <= idx < 5
        # selection pressure: the global best must win most large tournaments
        wins = sum(tournament_select(fits, 5, rng) == 3 for _ in range(30))
        assert wins > 15

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            tournament_select(np.array([]), 1, np.random.default_rng(5))
        with pytest.raises(ValueError):
            tournament_select(np.array([1.0, 2.0]), 0, np.random.default_rng(5))


# ---------------------------------------------------------------- crossover


class TestSbxCrossover:
    def test_half_u_is_identity(self):
        rng = ScriptedRng(floats=[0.0, [0.5, 0.5, 0.5]])
        a, b = np.array([1.0, 2.0, 3.0]), np.array([4.0, 5.0, 6.0])
        c1, c2 = sbx_crossover(a, b, 15.0, 1.0, rng)
        assert np.array_equal(c1, a)
        assert np.array_equal(c2, b)

    def test_gate_failure_copies_without_gene_draws(self):
        rng = ScriptedRng(floats=[0.95])  # only the gate draw is available
        a, b = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        c1, c2 = sbx_crossover(a, b, 15.0, 0.8, rng)
        assert np.array_equal(c1, a) and np.array_equal(c2, b)
        assert c1 is not a and c2 is not b
        assert rng.floats == []

    def test_hand_evaluated_spread_factor(self):
        # u = 0.2, eta = 15 -> beta = 0.4**(1/16); parents 0 and 1
        rng = ScriptedRng(floats=[0.0, [0.2]])
        c1, c2 = sbx_crossover(np.array([0.0]), np.array([1.0]), 15.0, 1.0, rng)
        assert c1[0] == 0.027829604581805556
        assert c2[0] == 0.9721703954181944

    def test_contracting_and_expanding_branches(self):
        rng = ScriptedRng(floats=[0.0, [0.8]])
        c1, c2 = sbx_crossover(np.array([0.0]), np.array([1.0]), 15.0, 1.0, rng)
        # u > 1/2 expands beyond the parent interval (projection happens later)
        assert c1[0] < 0.0 < 1.0 < c2[0]

    def test_gene_sums_conserved(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            a, b = rng.uniform(-5, 5, size=9), rng.uniform(-5, 5, size=9)
            c1, c2 = sbx_crossover(a, b, 15.0, 1.0, rng)
            assert np.allclose(c1 + c2, a + b, rtol=1e-12, atol=1e-12)

    def test_rejects_mismatched_parents(self):
        with pytest.raises(ValueError):
            sbx_crossover(np.ones(3), np.ones(4), 15.0, 0.8, np.random.default_rng(7))


# ---------------------------------------------------------------- mutation


def unit_box():
    """One node whose mutation box is [0, 1] x [0, 1] x [0, 2*pi]."""
    return Scenario(region_radius=0.5, region_center=(0.5, 0.5), node_count=1)


class TestPolynomialMutation:
    def test_half_u_leaves_gene_unchanged(self):
        rng = ScriptedRng(floats=[[0.0, 1.0, 1.0], [0.5, 0.5, 0.5]])
        out = polynomial_mutation(np.array([[0.3, 0.5, 1.0]]), 20.0, 1.0, unit_box(), rng)
        assert out[0, 0] == 0.3

    def test_gate_failure_consumes_both_blocks(self):
        rng = ScriptedRng(floats=[[0.99, 0.99, 0.99], [0.1, 0.9, 0.5]])
        out = polynomial_mutation(np.array([[0.3, 0.6, 1.0]]), 20.0, 0.2, unit_box(), rng)
        assert np.array_equal(out, [[0.3, 0.6, 1.0]])
        assert rng.floats == []  # gate and u blocks are always drawn

    def test_hand_evaluated_perturbation(self):
        # z = 0.5 on [0, 1], eta = 20, u = 0.9
        rng = ScriptedRng(floats=[[0.0, 1.0, 1.0], [0.9, 0.5, 0.5]])
        out = polynomial_mutation(np.array([[0.5, 0.5, 1.0]]), 20.0, 1.0, unit_box(), rng)
        assert out[0, 0] - 0.5 == pytest.approx(0.07377658984223268, rel=1e-15)

    def test_lower_bound_moves_inward(self):
        rng = ScriptedRng(floats=[[0.0, 1.0, 1.0], [0.9, 0.5, 0.5]])
        out = polynomial_mutation(np.array([[0.0, 0.5, 1.0]]), 20.0, 1.0, unit_box(), rng)
        assert 0.0 < out[0, 0] < 1.0

    def test_upper_bound_moves_inward(self):
        rng = ScriptedRng(floats=[[0.0, 1.0, 1.0], [0.3, 0.5, 0.5]])
        out = polynomial_mutation(np.array([[1.0, 0.5, 1.0]]), 20.0, 1.0, unit_box(), rng)
        assert 0.0 < out[0, 0] < 1.0

    def test_clamp_genes_stay_in_bounds(self):
        # run_ga's order: mutate, then project_feasible keeps positions in the region
        s = Scenario(region_radius=2.0, region_center=(5.0, -1.0))
        lower, upper = np.array([3.0, -3.0, 0.0]), np.array([7.0, 1.0, TWO_PI])
        rng = np.random.default_rng(8)
        for _ in range(100):
            z = rng.uniform(lower, upper, size=(3, 3))
            out = project_feasible(polynomial_mutation(z, 20.0, 1.0, s, rng), s)
            assert np.all(out >= lower) and np.all(out <= upper)
            assert deployment_violations(Deployment(out), s) == []

    def test_wrap_genes_stay_in_half_open_range(self):
        s = Scenario(region_radius=2.0, node_count=1)
        for u in (0.0001, 0.3, 0.7, 0.9999999999999999):
            rng = ScriptedRng(floats=[[1.0, 1.0, 0.0], [0.5, 0.5, u]])  # mutate the angle only
            out = project_feasible(polynomial_mutation(np.array([[0.0, 0.0, 6.0]]), 20.0, 1.0, s, rng), s)
            assert 0.0 <= out[0, 2] < TWO_PI

    def test_rejects_out_of_bounds_gene(self):
        with pytest.raises(ValueError):
            polynomial_mutation(np.array([[1.5, 0.5, 1.0]]), 20.0, 1.0, unit_box(), np.random.default_rng(9))


# ---------------------------------------------------------------- fitness


class TestFitness:
    def test_matches_exhaustive_pair_scan(self):
        scenario = Scenario(region_radius=3.0)
        dep = random_deployment(scenario, np.random.default_rng(10))
        value = fitness(dep.poses, scenario)
        assert value == pytest.approx(pair_scan_fitness_oracle(build_codebook(dep, scenario)), rel=5e-15)

    def test_pure_function(self, small_scenario):
        genes = random_deployment(small_scenario, np.random.default_rng(11)).poses
        assert fitness(genes, small_scenario) == fitness(genes, small_scenario)

    def test_collocated_nodes_score_worse_than_spread_baseline(self, small_scenario):
        collocated = Deployment([[0.25, 0.0, 0.0]] * 3).poses
        baseline = midpoint_baseline(small_scenario).poses
        assert fitness(collocated, small_scenario) > fitness(baseline, small_scenario)

    def test_element_on_a_grid_point_scores_inf(self):
        scenario = Scenario(region_radius=3.0, element_spacing=1.0)
        # element offsets +-0.5, +-1.5 from the node at (0.5, 0) land on grid points
        genes = np.array([[0.5, 0.0, 0.0], [0.5, 1.5, 0.25], [-1.0, -1.0, 0.5]])
        assert fitness(genes, scenario) == math.inf

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-2.5, -1.5, -0.5, 0.0, 0.5, 1.5, 2.5])),
                st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])),
                st.one_of(st.floats(0.0, TWO_PI, exclude_max=True), st.just(0.0)),
            ),
            min_size=3,
            max_size=3,
        )
    )
    def test_in_bounds_chromosomes_score_finite_or_inf(self, poses):
        # a node at a half-integer x, an integer y and theta 0 puts its elements on the 1 m lattice
        scenario = Scenario(region_radius=3.0, element_spacing=1.0)
        value = fitness(np.array(poses), scenario)
        assert math.isfinite(value) or value == math.inf

    def test_rejects_wrong_gene_count(self, small_scenario):
        with pytest.raises(ValueError):
            fitness(np.arange(6.0), small_scenario)


# ---------------------------------------------------------------- end to end


class TestGaParams:
    def test_defaults_match_reference_settings(self):
        p = GaParams()
        assert (p.population_size, p.elite_count, p.max_generations) == (100, 4, 500)
        assert (p.crossover_probability, p.mutation_probability) == (0.8, 0.2)
        assert (p.eta_crossover, p.eta_mutation, p.tournament_size) == (15.0, 20.0, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaParams(population_size=4, elite_count=4)
        with pytest.raises(ValueError):
            GaParams(population_size=9, elite_count=4)  # odd offspring count
        with pytest.raises(ValueError, match="elite_count must be an integer >= 1, got 0"):
            GaParams(population_size=4, elite_count=0)  # no elitism: the best fitness could rise
        with pytest.raises(ValueError):
            GaParams(crossover_probability=1.5)
        with pytest.raises(ValueError):
            GaParams(mutation_probability=-0.1)
        with pytest.raises(ValueError):
            GaParams(eta_crossover=0.0)
        with pytest.raises(ValueError):
            GaParams(tournament_size=0)
        with pytest.raises(ValueError):
            GaParams(max_generations=-1)

    def test_population_size_is_capped_before_any_individual_exists(self):
        assert GaParams(population_size=ga.MAX_POPULATION_SIZE).population_size == 2**20
        for size in (ga.MAX_POPULATION_SIZE + 2, 10**300):
            with pytest.raises(ValueError, match=r"^population_size must be at most MAX_POPULATION_SIZE = 1048576"):
                GaParams(population_size=size)

    @pytest.mark.parametrize("field", ["population_size", "elite_count", "tournament_size", "max_generations"])
    def test_boolean_counts_are_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field}: expected a number"):
            GaParams(**{field: True})


@pytest.fixture(scope="module")
def desk_params():
    return GaParams(population_size=12, elite_count=2, max_generations=12, tournament_size=3)


@pytest.fixture(scope="module")
def desk_result(small_scenario, desk_params):
    return run_ga(small_scenario, desk_params, np.random.default_rng(13))


class TestRunGa:
    def test_deterministic(self, small_scenario, desk_params, desk_result):
        again = run_ga(small_scenario, desk_params, np.random.default_rng(13))
        assert again.best == desk_result.best
        assert again.best_fitness == desk_result.best_fitness
        assert np.array_equal(again.trace, desk_result.trace)
        assert again.evaluations == desk_result.evaluations

    def test_trace_monotone_and_accounted(self, desk_params, desk_result):
        assert desk_result.trace.shape == (13,)
        assert np.all(np.diff(desk_result.trace) <= 0.0)
        assert desk_result.best_fitness == desk_result.trace[-1]
        assert desk_result.evaluations == 12 + 12 * (12 - 2)

    def test_improves_on_initial_population(self, desk_result):
        assert desk_result.best_fitness < desk_result.trace[0]

    def test_best_is_feasible(self, small_scenario, desk_result):
        assert isinstance(desk_result.best, Deployment)
        assert deployment_violations(desk_result.best, small_scenario) == []

    def test_best_fitness_is_reproducible_from_genes(self, small_scenario, desk_result):
        assert fitness(desk_result.best.poses, small_scenario) == desk_result.best_fitness

    def test_beats_independent_random_deployments(self, small_scenario, desk_result):
        rng = np.random.default_rng(14)
        random_best = min(
            fitness(random_deployment(small_scenario, rng).poses, small_scenario)
            for _ in range(20)
        )
        assert desk_result.best_fitness < random_best

    def test_zero_generations_returns_initial_best(self, small_scenario):
        params = GaParams(population_size=6, elite_count=2, max_generations=0)
        result = run_ga(small_scenario, params, np.random.default_rng(15))
        assert result.trace.shape == (1,)
        assert result.evaluations == 6
        assert result.best_fitness == result.trace[0]

    def test_result_invariants(self):
        best = Deployment(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            GaResult(best=best, trace=np.array([1.0, 2.0]), evaluations=10)
        assert GaResult(best=best, trace=np.array([2.0, 1.0]), evaluations=10).best_fitness == 1.0
        for hits in (-1, 10):
            with pytest.raises(ValueError, match="cache_hits"):
                GaResult(best=best, trace=np.array([1.0]), evaluations=10, cache_hits=hits)


class TestGoldenStream:
    """One seeded desk run, pinned bit for bit: any change to the stream
    layout or to an operator's floating-point steps shows here."""

    TRACE = ["0x1.d4c31711c01a9p-1", "0x1.d4c31711c01a9p-1", "0x1.ca840d8be3328p-1", "0x1.c2e23620073ddp-1",
             "0x1.c107373cb14fdp-1"]
    BEST = [
        ["0x1.8d96f13fa23d1p+0", "0x1.d7479b70de92dp+0", "0x1.e69d77fe48749p+1"],
        ["-0x1.7e47ca052128ep+1", "0x1.3dd7b2c577f55p+1", "0x1.f821cd228a716p+1"],
        ["-0x1.c0f4ae37b0527p+1", "-0x1.ec4565a4fb246p+0", "0x1.f63736dc9446cp+1"],
    ]

    def test_trace_and_best_poses(self):
        params = GaParams(8, elite_count=2, max_generations=4, tournament_size=2)
        result = run_ga(Scenario(region_radius=4.0), params, np.random.default_rng(7))
        assert [float(value).hex() for value in result.trace] == self.TRACE
        # read through getattr, the same pin also checks a build whose `best` is a flat gene vector
        best = np.reshape(getattr(result.best, "poses", result.best), (-1, 3))
        assert [[float(value).hex() for value in row] for row in best] == self.BEST
        assert (result.evaluations, result.cache_hits) == (32, 0)


class TestFitnessCache:
    """`run_ga` scores each distinct individual of a run once."""

    @staticmethod
    def counted_run(monkeypatch, scenario, params, seed):
        calls = []

        def counting(genes, scenario):
            calls.append(np.asarray(genes).tobytes())
            return fitness(genes, scenario)

        monkeypatch.setattr(ga, "fitness", counting)
        return run_ga(scenario, params, np.random.default_rng(seed)), calls

    def test_each_distinct_chromosome_is_scored_once(self, monkeypatch, small_scenario, desk_params, desk_result):
        result, calls = self.counted_run(monkeypatch, small_scenario, desk_params, 13)
        assert len(calls) == len(set(calls)) == result.evaluations - result.cache_hits
        assert result.evaluations == desk_result.evaluations
        assert np.array_equal(result.trace, desk_result.trace)
        assert result.best == desk_result.best

    def test_unchanged_offspring_are_cache_hits(self, monkeypatch, small_scenario):
        # no crossover and no mutation: every offspring copies a scored parent
        params = GaParams(
            population_size=8, elite_count=2, max_generations=5, crossover_probability=0.0, mutation_probability=0.0
        )
        result, calls = self.counted_run(monkeypatch, small_scenario, params, 21)
        assert len(calls) == 8
        assert result.evaluations == 8 + 5 * 6
        assert result.cache_hits == 5 * 6
