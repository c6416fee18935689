"""Real-coded genetic algorithm over deployment pose arrays.

An individual is the (J, 3) array of [x, y, theta] rows that a `Deployment`
holds. Each generation: tournament selection into a parent pool, simulated
binary crossover (SBX) on parent pairs, polynomial mutation, feasibility
projection (clamp to the bounding square, radially scale into the region
disk, wrap angles), and elitism - the best N_e individuals carry over
unchanged, with their fitness. A generation is one (P, J, 3) pose array.

Random-stream layout is fixed so results are reproducible for a given seed:
initialization draws P deployments in order; each generation draws, per
offspring pair, two tournaments (one index block each), one crossover gate
plus (only when the gate passes) one uniform block, then per child one
mutation gate block and one mutation u block. A gene block is one (J, 3)
draw, filled row by row: the same values, in the same order, as a 3J draw.

No draw depends on its generation's arithmetic, so `run_ga` first takes all of
a generation's draws in that order (each tournament runs as it is drawn), then
runs the crossover, mutation and projection arithmetic once on the whole
offspring block. Each of those public operators draws for one pair or child
and calls the same arithmetic, which works on any leading shape.
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
per individual, which holds at the reference node count. tracemalloc (fitness
stubbed, P = 2,002 against 6,002) reads about 0.71 KB per individual of a
3-node population (poses, offspring, one generation's draws and operator
temporaries, or its repeat lookup), 1.17 KB at 5 nodes, at 1 and at 4
generations; later generations add nothing."""


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
    scored (P + G(P - N_e)) and how many of those repeated a parent or an
    earlier offspring of their generation and so skipped a `fitness` call."""

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
    return _project(_check_poses(poses, scenario), scenario)


def _project(poses: np.ndarray, scenario: Scenario) -> np.ndarray:
    """`project_feasible`'s arithmetic on a (..., J, 3) block, into a new array."""
    out = poses.copy()
    cx, cy = scenario.region_center
    r = scenario.region_radius
    xs = np.clip(out[..., 0], cx - r, cx + r) - cx
    ys = np.clip(out[..., 1], cy - r, cy + r) - cy
    dist = np.hypot(xs, ys)
    scale = np.where(dist > r, r / np.where(dist > r, dist, 1.0), 1.0)
    out[..., 0] = cx + xs * scale
    out[..., 1] = cy + ys * scale
    out[..., 2] = wrap_angle(out[..., 2])
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
    p_c, eta_c = real_in("p_c", p_c, 0.0, 1.0), real_in("eta_c", eta_c, 0.0, above=True)
    a = np.array(parent_a, dtype=float)
    b = np.array(parent_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"parents must have one shape, got {a.shape} and {b.shape}")
    if rng.random() >= p_c:
        return a, b
    return _sbx(a, b, rng.random(a.shape), eta_c)


def _sbx(a: np.ndarray, b: np.ndarray, u: np.ndarray, eta_c: float) -> tuple[np.ndarray, np.ndarray]:
    """`sbx_crossover`'s arithmetic on parent blocks of any one shape, with u of that shape."""
    exponent = 1.0 / (eta_c + 1.0)
    beta = np.where(u <= 0.5, (2.0 * u) ** exponent, (1.0 / (2.0 - 2.0 * u)) ** exponent)
    return 0.5 * ((1.0 + beta) * a + (1.0 - beta) * b), 0.5 * ((1.0 - beta) * a + (1.0 + beta) * b)


def _mutation_box(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper gene rows: the region's bounding square and [0, 2*pi]."""
    cx, cy = scenario.region_center
    r = scenario.region_radius
    return np.array([cx - r, cy - r, 0.0]), np.array([cx + r, cy + r, TWO_PI])


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
    p_m, eta_m = real_in("p_m", p_m, 0.0, 1.0), real_in("eta_m", eta_m, 0.0, above=True)
    z = _check_poses(poses, scenario)
    lower, upper = _mutation_box(scenario)
    span = upper - lower
    if np.any(z < lower - 1e-9 * span) or np.any(z > upper + 1e-9 * span):
        raise ValueError("genes must lie within the region's box before mutation")
    gates = rng.random(z.shape) < p_m
    return _mutate(z, gates, rng.random(z.shape), scenario, eta_m)


def _mutate(z: np.ndarray, gates: np.ndarray, u: np.ndarray, scenario: Scenario, eta_m: float) -> np.ndarray:
    """`polynomial_mutation`'s arithmetic on a (..., J, 3) block, for its gated
    genes only, into a new array."""
    lower, upper = (np.broadcast_to(bound, z.shape)[gates] for bound in _mutation_box(scenario))
    genes, u = z[gates], u[gates]
    span = upper - lower
    frac_low = np.clip((genes - lower) / span, 0.0, 1.0)
    frac_high = np.clip((upper - genes) / span, 0.0, 1.0)
    power = eta_m + 1.0
    exponent = 1.0 / power
    delta_low = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - frac_low) ** power) ** exponent - 1.0
    delta_high = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - frac_high) ** power) ** exponent
    out = z.copy()
    out[gates] = genes + np.where(u <= 0.5, delta_low, delta_high) * span
    return out


def _breed(population, fitnesses, buffers, params: GaParams, scenario: Scenario, rng, offspring) -> None:
    """Write one generation's (pairs, 2, J, 3) offspring block. Pair by pair,
    in the stream order, the two tournaments are run as they are drawn (so no
    more than k indices are held at once) and the gates and u blocks go into
    the run's buffers; then crossover, projection, mutation and projection
    each run once on the whole block."""
    parents, crossing, crossover_u, mutation_gates, mutation_u = buffers
    k = params.tournament_size
    for pair in range(len(crossing)):
        parents[pair] = tournament_select(fitnesses, k, rng), tournament_select(fitnesses, k, rng)
        crossing[pair] = rng.random() < params.crossover_probability
        if crossing[pair]:
            rng.random(out=crossover_u[pair])
        for child in range(2):
            np.less(rng.random(crossover_u.shape[1:]), params.mutation_probability, out=mutation_gates[pair, child])
            rng.random(out=mutation_u[pair, child])
    offspring[...] = population[parents]
    if crossing.any():
        crossed = offspring[crossing]
        offspring[crossing, 0], offspring[crossing, 1] = _sbx(
            crossed[:, 0], crossed[:, 1], crossover_u[crossing], params.eta_crossover
        )
    children = _mutate(_project(offspring, scenario), mutation_gates, mutation_u, scenario, params.eta_mutation)
    offspring[...] = _project(children, scenario)


def run_ga(scenario: Scenario, params: GaParams, rng: np.random.Generator) -> GaResult:
    """Evolve deployments against the worst-pair correlation metric.

    The population is one (P, J, 3) pose array with a (P,) fitness vector. Per
    generation: P - N_e offspring from tournament parents via SBX + polynomial
    mutation + feasibility projection, written into one reused block, plus the
    N_e best incumbents carried over with their fitness. The offspring's draws
    are taken per pair in the module's stream order; the crossover, mutation
    and projection arithmetic then runs once per generation on the whole
    block, bit for bit as the public operators compute it child by child. The
    best-fitness trace has one entry per generation plus the initial
    population, and is non-increasing by elitism. Fitness is evaluated
    serially, in population order; results depend only on the seed. An
    individual whose poses repeat, bit for bit, a member of its parent
    generation or an earlier offspring of its own reuses that score; nothing
    older is kept.
    """
    pairs = (params.population_size - params.elite_count) // 2
    offspring = np.empty((pairs, 2, scenario.node_count, 3))
    buffers = (
        np.empty((pairs, 2), dtype=np.int64),
        np.empty(pairs, dtype=bool),
        np.empty((pairs, scenario.node_count, 3)),
        np.empty(offspring.shape, dtype=bool),
        np.empty(offspring.shape),
    )
    # generation 0 scores the initial population as the offspring of an empty one
    block = np.stack([random_deployment(scenario, rng).poses for _ in range(params.population_size)])
    population, fitnesses = block[:0], np.empty(0)
    trace, calls = [], 0

    for generation in range(params.max_generations + 1):
        if generation:
            _breed(population, fitnesses, buffers, params, scenario, rng, offspring)
            block = offspring.reshape(-1, scenario.node_count, 3)
        seen = {poses.tobytes(): value for poses, value in zip(population, fitnesses)}
        calls -= len(seen)
        for poses in block:
            if (key := poses.tobytes()) not in seen:
                seen[key] = fitness(poses, scenario)
        calls += len(seen)
        elite_order = np.argsort(fitnesses, kind="stable")[: params.elite_count]
        population = np.concatenate([population[elite_order], block])
        fitnesses = np.concatenate([fitnesses[elite_order], [seen[poses.tobytes()] for poses in block]])
        del seen  # the lookup dies with its generation
        trace.append(float(np.min(fitnesses)))

    evaluations = params.population_size + params.max_generations * 2 * pairs
    return GaResult(
        best=Deployment(population[int(np.argmin(fitnesses))]),
        trace=np.asarray(trace, dtype=float),
        evaluations=evaluations,
        cache_hits=evaluations - calls,
    )
