"""Real-coded genetic algorithm over deployment chromosomes.

A chromosome is the flat gene vector [x_1, y_1, theta_1, ..., x_J, y_J,
theta_J]. Each generation: tournament selection into a parent pool, simulated
binary crossover (SBX) on parent pairs, polynomial mutation, feasibility
projection (clamp to the bounding square, radially scale into the region
disk, wrap angles), and elitism - the best N_e chromosomes carry over
unchanged, with their fitness values cached.

Random-stream layout is fixed so results are reproducible for a given seed:
initialization draws P deployments in order; each generation draws, per
offspring pair, two tournaments (one index block each), one crossover gate
plus (only when the gate passes) one uniform block, then per child one
mutation gate block and one mutation u block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import build_codebook, max_weighted_correlation
from .geometry import (
    TWO_PI,
    DegenerateGeometryError,
    Deployment,
    Scenario,
    integer_at_least,
    random_deployment,
    wrap_angle,
)


@dataclass(frozen=True, eq=False)
class GeneBounds:
    """Per-gene box bounds [lower, upper] of the polynomial mutation law."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.ndim != 1 or lower.shape != upper.shape:
            raise ValueError("lower and upper must have one entry per gene")
        if not np.all(lower < upper):
            raise ValueError("every lower bound must be strictly below its upper bound")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


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
        minimums = {"population_size": 2, "elite_count": 0, "tournament_size": 1, "max_generations": 0}
        for name, minimum in minimums.items():
            object.__setattr__(self, name, integer_at_least(name, getattr(self, name), minimum))
        if self.elite_count >= self.population_size:
            raise ValueError("elite_count must be in [0, population_size)")
        offspring = self.population_size - self.elite_count
        if offspring < 2 or offspring % 2:
            raise ValueError("population_size - elite_count must be even and >= 2 (offspring pairs)")
        for name in ("crossover_probability", "mutation_probability"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        for name in ("eta_crossover", "eta_mutation"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True, eq=False)
class GaResult:
    """Best chromosome found, the per-generation best-fitness trace (index 0 =
    initial population, last = `best_fitness`), the number of chromosomes
    scored (P + G(P - N_e)) and how many of those repeated an earlier chromosome
    of the run and took its cached fitness instead of a `fitness` call."""

    best: np.ndarray
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
        object.__setattr__(self, "best", np.asarray(self.best, dtype=float))
        object.__setattr__(self, "trace", trace)

    @property
    def best_fitness(self) -> float:
        return float(self.trace[-1])


def encode_deployment(deployment: Deployment) -> np.ndarray:
    """Flatten a deployment into its gene vector [x_1, y_1, theta_1, ...]."""
    return deployment.as_array().ravel()


def decode_chromosome(genes) -> Deployment:
    """Rebuild the deployment encoded by a flat gene vector."""
    genes = np.asarray(genes, dtype=float)
    if genes.ndim != 1 or genes.size == 0 or genes.size % 3:
        raise ValueError(f"gene vector length must be a positive multiple of 3, got {genes.size}")
    return Deployment.from_array(genes.reshape(-1, 3))


def deployment_bounds(scenario: Scenario) -> GeneBounds:
    """Per-gene box bounds for J nodes: positions span the bounding square
    of the region disk, angles [0, 2*pi]."""
    cx, cy = scenario.region_center
    r = scenario.region_radius
    lower = np.tile([cx - r, cy - r, 0.0], scenario.node_count)
    upper = np.tile([cx + r, cy + r, TWO_PI], scenario.node_count)
    return GeneBounds(lower=lower, upper=upper)


def project_feasible(genes, scenario: Scenario) -> np.ndarray:
    """Project a chromosome into the feasible set.

    Positions are clamped to the region's bounding square and then, if still
    outside the disk, radially scaled onto the circle; angles are wrapped to
    [0, 2*pi). Feasible chromosomes are returned unchanged.
    """
    genes = np.asarray(genes, dtype=float)
    if genes.ndim != 1 or genes.size != 3 * scenario.node_count:
        raise ValueError(f"expected {3 * scenario.node_count} genes, got shape {genes.shape}")
    cx, cy = scenario.region_center
    r = scenario.region_radius
    out = genes.copy()
    xs = np.clip(out[0::3], cx - r, cx + r) - cx
    ys = np.clip(out[1::3], cy - r, cy + r) - cy
    dist = np.hypot(xs, ys)
    scale = np.where(dist > r, r / np.where(dist > r, dist, 1.0), 1.0)
    out[0::3] = cx + xs * scale
    out[1::3] = cy + ys * scale
    out[2::3] = wrap_angle(out[2::3])
    return out


def fitness(chromosome, scenario: Scenario) -> float:
    """Deployment quality: the worst weighted steering correlation over all
    grid pairs (lower is better). A chromosome that puts an antenna element
    on a grid point scores +inf, so one degenerate child cannot abort a run."""
    genes = np.asarray(chromosome, dtype=float)
    if genes.size != 3 * scenario.node_count:
        raise ValueError(
            f"chromosome has {genes.size} genes, scenario expects {3 * scenario.node_count}"
        )
    try:
        codebook = build_codebook(decode_chromosome(genes), scenario)
    except DegenerateGeometryError:
        return float("inf")
    return max_weighted_correlation(codebook).max_value


def tournament_select(population, fitnesses, k: int, rng) -> int:
    """Index of the fittest of k uniformly sampled candidates (with
    replacement); ties break to the lowest index."""
    n = len(population)
    if n < 1:
        raise ValueError("population must be non-empty")
    if k < 1:
        raise ValueError(f"tournament size must be >= 1, got {k!r}")
    draws = rng.integers(0, n, size=k)
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
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"parents must be equal-length vectors, got {a.shape} and {b.shape}")
    if rng.random() >= p_c:
        return a, b
    u = rng.random(a.size)
    exponent = 1.0 / (eta_c + 1.0)
    beta = np.where(u <= 0.5, (2.0 * u) ** exponent, (1.0 / (2.0 - 2.0 * u)) ** exponent)
    child_1 = 0.5 * ((1.0 + beta) * a + (1.0 - beta) * b)
    child_2 = 0.5 * ((1.0 - beta) * a + (1.0 + beta) * b)
    return child_1, child_2


def polynomial_mutation(chromosome, eta_m: float, p_m: float, bounds: GeneBounds, rng) -> np.ndarray:
    """Bounded polynomial mutation of each gene independently with probability p_m.

    Stream layout: one full-length gate block, then one full-length u block
    (both always consumed). For a mutated gene at z in [L, U], the
    perturbation delta follows the two-branch polynomial law with distance
    fractions delta_1 = (z-L)/(U-L), delta_2 = (U-z)/(U-L) and exponent
    1/(eta_m+1); the new gene is z + delta*(U-L). The result is not
    projected: `run_ga` passes every mutated child through `project_feasible`,
    which clamps positions and wraps angles.
    """
    z = np.array(chromosome, dtype=float)
    lower, upper = bounds.lower, bounds.upper
    if z.shape != lower.shape:
        raise ValueError(f"chromosome shape {z.shape} does not match bounds shape {lower.shape}")
    span = upper - lower
    if np.any(z < lower - 1e-9 * span) or np.any(z > upper + 1e-9 * span):
        raise ValueError("genes must lie within their bounds before mutation")
    gates = rng.random(z.size) < p_m
    u = rng.random(z.size)
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
    on the seed. A chromosome whose genes repeat, bit for bit, one already
    scored in the run reuses that score, so `fitness` runs once per distinct
    chromosome.
    """
    scores: dict[bytes, float] = {}

    def score(genes: np.ndarray) -> float:
        key = genes.tobytes()
        if key not in scores:
            scores[key] = fitness(genes, scenario)
        return scores[key]

    bounds = deployment_bounds(scenario)
    population = [
        encode_deployment(random_deployment(scenario, rng)) for _ in range(params.population_size)
    ]
    fitnesses = np.array([score(genes) for genes in population], dtype=float)
    evaluations = len(population)
    trace = [float(np.min(fitnesses))]

    for _ in range(params.max_generations):
        offspring: list[np.ndarray] = []
        while len(offspring) < params.population_size - params.elite_count:
            first = tournament_select(population, fitnesses, params.tournament_size, rng)
            second = tournament_select(population, fitnesses, params.tournament_size, rng)
            children = sbx_crossover(
                population[first],
                population[second],
                params.eta_crossover,
                params.crossover_probability,
                rng,
            )
            for child in children:
                child = project_feasible(child, scenario)
                child = polynomial_mutation(
                    child, params.eta_mutation, params.mutation_probability, bounds, rng
                )
                offspring.append(project_feasible(child, scenario))
        elite_order = np.argsort(fitnesses, kind="stable")[: params.elite_count]
        elites = [population[i] for i in elite_order]
        elite_fitnesses = fitnesses[elite_order]
        offspring_fitnesses = np.array([score(genes) for genes in offspring], dtype=float)
        evaluations += len(offspring)
        population = elites + offspring
        fitnesses = np.concatenate([elite_fitnesses, offspring_fitnesses])
        trace.append(float(np.min(fitnesses)))

    return GaResult(
        best=population[int(np.argmin(fitnesses))],
        trace=np.asarray(trace, dtype=float),
        evaluations=evaluations,
        cache_hits=evaluations - len(scores),
    )
