"""Real-coded genetic algorithm over deployment pose arrays.

An individual is the (J, 3) array of [x, y, theta] rows that a `Deployment`
holds. Each generation: tournament selection into a parent pool, simulated
binary crossover (SBX) on parent pairs, polynomial mutation, feasibility
projection (clamp to the bounding square, radially scale into the region
disk, wrap angles), and elitism - the best N_e individuals carry over
unchanged, with their fitness values cached.

Random-stream layout is fixed so results are reproducible for a given seed:
initialization draws P deployments in order; each generation draws, per
offspring pair, two tournaments (one index block each), one crossover gate
plus (only when the gate passes) one uniform block, then per child one
mutation gate block and one mutation u block. A gene block is one (J, 3)
draw, filled row by row: the same values, in the same order, as a 3J draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import build_codebook, max_weighted_correlation
from .geometry import (
    MAX_NOISE_BLOCK_BYTES,
    TWO_PI,
    DegenerateGeometryError,
    Deployment,
    Scenario,
    random_deployment,
    wrap_angle,
)
from .validation import integer_at_least, real_in

MAX_POPULATION_SIZE = MAX_NOISE_BLOCK_BYTES // 1024
"""Largest GA population: the 1 GiB budget of MAX_NOISE_BLOCK_BYTES at 1 KiB
per individual. tracemalloc reads about 0.85 KB per individual of a 3-node
population through its first generation (poses, offspring and their fitness
cache entries), 1.0 KB at 5 nodes; each further generation adds about 160 B
per new individual to the run's cache."""


@dataclass(frozen=True)
class GaParams:
    """Evolutionary hyper-parameters; defaults match the reference experiment."""

    population_size: int = 100
    crossover_probability: float = 0.8
    mutation_probability: float = 0.2
    eta_crossover: float = 15.0
    eta_mutation: float = 20.0
    elite_count: int = 4
    tournament_size: int = 3
    max_generations: int = 500

    def __post_init__(self):
        minimums = {"population_size": 2, "elite_count": 1, "tournament_size": 1, "max_generations": 0}
        for name, minimum in minimums.items():
            object.__setattr__(self, name, integer_at_least(name, getattr(self, name), minimum))
        if self.population_size > MAX_POPULATION_SIZE:
            raise ValueError(
                f"population_size must be at most MAX_POPULATION_SIZE = {MAX_POPULATION_SIZE} "
                f"(about 1 KiB each), got {self.population_size!r}"
            )
        if self.elite_count >= self.population_size:
            raise ValueError("elite_count must be in [1, population_size)")
        offspring = self.population_size - self.elite_count
        if offspring < 2 or offspring % 2:
            raise ValueError("population_size - elite_count must be even and >= 2 (offspring pairs)")
        for name in ("crossover_probability", "mutation_probability"):
            real_in(name, getattr(self, name), 0.0, 1.0)
        for name in ("eta_crossover", "eta_mutation"):
            real_in(name, getattr(self, name), 0.0, above=True)


@dataclass(frozen=True, eq=False)
class GaResult:
    """Best deployment found, the per-generation best-fitness trace (index 0 =
    initial population, last = `best_fitness`), the number of individuals
    scored (P + G(P - N_e)) and how many of those repeated an earlier individual
    of the run and took its cached fitness instead of a `fitness` call."""

    best: Deployment
    trace: np.ndarray
    evaluations: int
    cache_hits: int = 0

    def __post_init__(self):
        trace = np.asarray(self.trace, dtype=float)
        if trace.ndim != 1 or trace.size < 1:
            raise ValueError("trace must be a non-empty 1-D array")
        if not np.all(np.diff(trace) <= 0.0):
            raise ValueError("trace must be non-increasing (elitism guarantee)")
        if self.evaluations < 1:
            raise ValueError("evaluations must be >= 1")
        if not 0 <= self.cache_hits < self.evaluations:
            raise ValueError("cache_hits must be in [0, evaluations)")
        object.__setattr__(self, "trace", trace)

    @property
    def best_fitness(self) -> float:
        return float(self.trace[-1])


def _check_poses(poses, scenario: Scenario) -> np.ndarray:
    """`poses` as a float array, if it has the scenario's (J, 3) shape."""
    poses = np.asarray(poses, dtype=float)
    if poses.shape != (scenario.node_count, 3):
        raise ValueError(f"expected a ({scenario.node_count}, 3) pose array, got shape {poses.shape}")
    return poses


def project_feasible(poses, scenario: Scenario) -> np.ndarray:
    """Project a (J, 3) pose array into the feasible set.

    Positions are clamped to the region's bounding square and then, if still
    outside the disk, radially scaled onto the circle; angles are wrapped to
    [0, 2*pi). Feasible poses are returned unchanged.
    """
    out = _check_poses(poses, scenario).copy()
    cx, cy = scenario.region_center
    r = scenario.region_radius
    xs = np.clip(out[:, 0], cx - r, cx + r) - cx
    ys = np.clip(out[:, 1], cy - r, cy + r) - cy
    dist = np.hypot(xs, ys)
    scale = np.where(dist > r, r / np.where(dist > r, dist, 1.0), 1.0)
    out[:, 0] = cx + xs * scale
    out[:, 1] = cy + ys * scale
    out[:, 2] = wrap_angle(out[:, 2])
    return out


def fitness(poses, scenario: Scenario) -> float:
    """Deployment quality of a (J, 3) pose array: the worst weighted steering
    correlation over all grid pairs (lower is better). Poses that put an
    antenna element on a grid point score +inf, so one degenerate child cannot
    abort a run."""
    try:
        codebook = build_codebook(Deployment(_check_poses(poses, scenario)), scenario)
    except DegenerateGeometryError:
        return float("inf")
    return max_weighted_correlation(codebook).max_value


def tournament_select(fitnesses, k: int, rng) -> int:
    """Index of the fittest of k uniformly sampled candidates (with
    replacement); ties break to the lowest index."""
    n = len(fitnesses)
    if n < 1:
        raise ValueError("population must be non-empty")
    draws = rng.integers(0, n, size=integer_at_least("k", k, 1))
    return int(min((int(i) for i in draws), key=lambda i: (fitnesses[i], i)))


def sbx_crossover(parent_a, parent_b, eta_c: float, p_c: float, rng):
    """Simulated binary crossover: two children from two parents.

    One uniform draw gates the whole pair with probability p_c; on failure the
    parents are copied verbatim (no per-gene draws). On success each gene pair
    is recombined with its own spread factor beta(u) = (2u)^(1/(eta_c+1)) for
    u <= 1/2, else (1/(2-2u))^(1/(eta_c+1)); gene-wise child sums equal parent
    sums. Children are raw (not projected into the feasible set).
    """
    a = np.array(parent_a, dtype=float)
    b = np.array(parent_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"parents must have one shape, got {a.shape} and {b.shape}")
    if rng.random() >= p_c:
        return a, b
    u = rng.random(a.shape)
    exponent = 1.0 / (eta_c + 1.0)
    beta = np.where(u <= 0.5, (2.0 * u) ** exponent, (1.0 / (2.0 - 2.0 * u)) ** exponent)
    child_1 = 0.5 * ((1.0 + beta) * a + (1.0 - beta) * b)
    child_2 = 0.5 * ((1.0 - beta) * a + (1.0 + beta) * b)
    return child_1, child_2


def polynomial_mutation(poses, eta_m: float, p_m: float, scenario: Scenario, rng) -> np.ndarray:
    """Bounded polynomial mutation of each gene of a (J, 3) pose array
    independently with probability p_m, within the box [L, U] of each row:
    [cx - r, cy - r, 0] to [cx + r, cy + r, 2*pi], the region's bounding square
    and the angle range.

    Stream layout: one (J, 3) gate block, then one (J, 3) u block (both always
    consumed). For a mutated gene at z in [L, U], the perturbation delta
    follows the two-branch polynomial law with distance fractions
    delta_1 = (z-L)/(U-L), delta_2 = (U-z)/(U-L) and exponent 1/(eta_m+1); the
    new gene is z + delta*(U-L). The result is not projected: `run_ga` passes
    every mutated child through `project_feasible`, which clamps positions and
    wraps angles.
    """
    z = _check_poses(poses, scenario)
    cx, cy = scenario.region_center
    r = scenario.region_radius
    lower, upper = np.array([cx - r, cy - r, 0.0]), np.array([cx + r, cy + r, TWO_PI])
    span = upper - lower
    if np.any(z < lower - 1e-9 * span) or np.any(z > upper + 1e-9 * span):
        raise ValueError("genes must lie within the region's box before mutation")
    gates = rng.random(z.shape) < p_m
    u = rng.random(z.shape)
    frac_low = np.clip((z - lower) / span, 0.0, 1.0)
    frac_high = np.clip((upper - z) / span, 0.0, 1.0)
    power = eta_m + 1.0
    exponent = 1.0 / power
    delta_low = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - frac_low) ** power) ** exponent - 1.0
    delta_high = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - frac_high) ** power) ** exponent
    delta = np.where(u <= 0.5, delta_low, delta_high)
    return np.where(gates, z + delta * span, z)


def run_ga(scenario: Scenario, params: GaParams, rng: np.random.Generator) -> GaResult:
    """Evolve deployments against the worst-pair correlation metric.

    Per generation: P - N_e offspring from tournament parents via SBX +
    polynomial mutation + feasibility projection, plus the N_e best incumbents
    carried over with cached fitness. The best-fitness trace has one entry per
    generation plus the initial population, and is non-increasing by elitism.
    Fitness is evaluated serially, in population order; results depend only
    on the seed. An individual whose poses repeat, bit for bit, one already
    scored in the run reuses that score, so `fitness` runs once per distinct
    individual.
    """
    scores: dict[bytes, float] = {}

    def score(poses: np.ndarray) -> float:
        key = poses.tobytes()
        if key not in scores:
            scores[key] = fitness(poses, scenario)
        return scores[key]

    population = [random_deployment(scenario, rng).poses for _ in range(params.population_size)]
    fitnesses = np.array([score(poses) for poses in population], dtype=float)
    evaluations = len(population)
    trace = [float(np.min(fitnesses))]

    for _ in range(params.max_generations):
        offspring: list[np.ndarray] = []
        while len(offspring) < params.population_size - params.elite_count:
            first = tournament_select(fitnesses, params.tournament_size, rng)
            second = tournament_select(fitnesses, params.tournament_size, rng)
            children = sbx_crossover(
                population[first], population[second], params.eta_crossover, params.crossover_probability, rng
            )
            for child in children:
                child = project_feasible(child, scenario)
                child = polynomial_mutation(child, params.eta_mutation, params.mutation_probability, scenario, rng)
                offspring.append(project_feasible(child, scenario))
        elite_order = np.argsort(fitnesses, kind="stable")[: params.elite_count]
        elites = [population[i] for i in elite_order]
        elite_fitnesses = fitnesses[elite_order]
        offspring_fitnesses = np.array([score(poses) for poses in offspring], dtype=float)
        evaluations += len(offspring)
        population = elites + offspring
        fitnesses = np.concatenate([elite_fitnesses, offspring_fitnesses])
        trace.append(float(np.min(fitnesses)))

    return GaResult(
        best=Deployment(population[int(np.argmin(fitnesses))]),
        trace=np.asarray(trace, dtype=float),
        evaluations=evaluations,
        cache_hits=evaluations - len(scores),
    )
