"""
Snapshot simulation and MUSIC localization
==========================================

Simulates received snapshots y = a(p) s + n for a target on the grid, forms
the sample covariance, and localizes the target with MUSIC over the grid
codebook. With one target the noise subspace is everything orthogonal to the
covariance's principal eigenvector u1, so the grid point whose steering
vector has the least noise-subspace power 1 - |u1^H a|^2 is the one most
aligned with u1. At high SNR the estimate snaps to the true point; at very
low SNR u1 wanders off the steering vector and errors appear.
"""

import numpy as np

from isacdeploy import (
    Scenario,
    build_codebook,
    localize,
    midpoint_baseline,
    rmse_map,
    sample_covariance,
    generate_snapshots,
    snr_to_powers,
)

# A compact scenario keeps this demo fast: 4 m region, 49 grid points.
scenario = Scenario(region_radius=4.0, snapshot_count=200)
deployment = midpoint_baseline(scenario)
codebook = build_codebook(deployment, scenario)
rng = np.random.default_rng(7)

# Pick a true target on the grid and simulate snapshots at several SNRs.
target_index = 17
target = codebook.grid[target_index]
print(f"true target: ({target[0]:+.0f}, {target[1]:+.0f})")
for snr_db in (20.0, 0.0, -15.0):
    powers = snr_to_powers(snr_db)
    snapshots = generate_snapshots(
        codebook.steering[:, target_index], powers, scenario.snapshot_count, rng
    )
    estimate = localize(sample_covariance(snapshots), codebook)
    error = float(np.hypot(*(estimate - target)))
    print(f"SNR {snr_db:+.0f} dB: estimate ({estimate[0]:+.0f}, {estimate[1]:+.0f})"
          f"  error {error:.2f} m")

# Passing `trials` draws a stack of independent snapshot matrices in one call;
# sample_covariance turns the stack into one covariance per trial.
trials = generate_snapshots(
    codebook.steering[:, target_index], snr_to_powers(-20.0), scenario.snapshot_count, rng, trials=100
)
hits = sum(np.array_equal(localize(cov, codebook), target) for cov in sample_covariance(trials))
print(f"SNR -20 dB: {hits} of 100 trials localize exactly")

# The Monte Carlo map repeats this at every grid point and reports the
# per-point RMSE; the worst point is the deployment's robustness score.
stats = rmse_map(deployment, scenario, trials=25, rng=np.random.default_rng(11))
print(f"RMSE map at {scenario.snr_db:+.0f} dB: "
      f"mean {np.mean(stats.per_point_rmse):.3f} m, worst {stats.max_rmse:.3f} m "
      f"({stats.trials_per_point} trials/point)")
