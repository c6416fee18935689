"""
Minimizing the worst-case correlation with a genetic algorithm
==============================================================

Encodes a deployment as a flat chromosome [x, y, theta] per node and evolves
a population with tournament selection, simulated binary crossover,
polynomial mutation, elitism, and feasibility projection into the circular
region. The fitness being minimized is the maximum distance-weighted
correlation over all grid-point pairs.
"""

import numpy as np

from isacdeploy import (
    GaParams,
    Scenario,
    build_codebook,
    decode_chromosome,
    max_weighted_correlation,
    midpoint_baseline,
    random_deployment,
    run_ga,
)

# A desk-scale setup so the demo finishes in seconds; the reference
# experiment uses population 100 and 500 generations instead.
scenario = Scenario(region_radius=4.0)
params = GaParams(population_size=24, elite_count=4, max_generations=40)
rng = np.random.default_rng(2)

result = run_ga(scenario, params, rng)
print(f"evaluations: {result.evaluations}")
for generation in range(0, params.max_generations + 1, 10):
    print(f"generation {generation:3d}: best fitness {result.trace[generation]:.6f}")

best = decode_chromosome(result.best)
print("optimized deployment:")
for index, (x, y, theta) in enumerate(best.poses):
    print(f"  node {index}: x={x:+.3f} y={y:+.3f} theta={theta:.3f} rad")

# Compare against the midpoint baseline and a few random deployments.
baseline = max_weighted_correlation(build_codebook(midpoint_baseline(scenario), scenario))
print(f"optimized max rho: {result.best_fitness:.6f}")
print(f"midpoint max rho:  {baseline.max_value:.6f}")
sampler = np.random.default_rng(3)
randoms = [
    max_weighted_correlation(build_codebook(random_deployment(scenario, sampler), scenario)).max_value
    for _ in range(5)
]
print(f"random max rho:    best {min(randoms):.6f}, worst {max(randoms):.6f} (5 draws)")
