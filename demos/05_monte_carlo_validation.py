"""
Does the correlation metric predict localization robustness?
============================================================

The optimizer never simulates a localizer - it only shrinks the worst
distance-weighted steering correlation. This demo validates that surrogate:
across deployments, max rho and the Monte Carlo worst-case RMSE move
together (positive Pearson correlation), and the optimized deployment wins
on both. The same experiment is available as `isac-deploy montecarlo`.
"""

import numpy as np

from isacdeploy import (
    GaParams,
    Scenario,
    build_codebook,
    derived_rng,
    max_weighted_correlation,
    midpoint_baseline,
    pearson,
    random_deployment,
    rmse_maps,
    run_ga,
)

scenario = Scenario(region_radius=4.0, snapshot_count=100)
seed = 5

# Candidate deployments: GA-optimized, the midpoint baseline, and randoms.
result = run_ga(
    scenario,
    GaParams(population_size=24, elite_count=4, max_generations=30),
    derived_rng(seed, 0),
)
candidates = {"optimized": result.best, "midpoint": midpoint_baseline(scenario)}
for k in range(8):
    candidates[f"random-{k}"] = random_deployment(scenario, derived_rng(seed, 1, k))

# Score each deployment on both axes. One Monte Carlo pass covers them all:
# every deployment sees the same noise draws (common random numbers), so
# differences reflect geometry.
maps = rmse_maps(list(candidates.values()), scenario, trials=8, rng=derived_rng(seed, 2))
rows = []
for (name, deployment), stats in zip(candidates.items(), maps):
    rho = max_weighted_correlation(build_codebook(deployment, scenario)).max_value
    rows.append((name, rho, stats.max_rmse))
    print(f"{name:<10} max rho {rho:.4f}   max RMSE {stats.max_rmse:.3f} m")

best_rho = min(rows, key=lambda row: row[1])
best_rmse = min(rows, key=lambda row: row[2])
print(f"lowest max rho:  {best_rho[0]}")
print(f"lowest max RMSE: {best_rmse[0]}")

# The conjecture behind the metric: lower max rho tends to mean lower
# worst-case RMSE. Quantify it on the random ensemble.
random_rows = [row for row in rows if row[0].startswith("random-")]
gamma = pearson([row[1] for row in random_rows], [row[2] for row in random_rows])
print(f"Pearson gamma over randoms: {gamma:+.3f}")
