"""
Scenario geometry and spherical-wavefront steering vectors
==========================================================

Builds the reference scenario (three 4-antenna nodes inside a circular
coverage region), lays out the antenna elements of a deployment, and shows
the two properties the localization stack relies on: steering vectors are
unit-norm, and they distinguish positions - not just directions - because
each entry carries the exact spherical range to the target.
"""

import numpy as np

from isacdeploy import (
    Scenario,
    coverage_grid,
    deployment_layout,
    midpoint_baseline,
    steering_vector,
)

# The reference scenario: 2.4 GHz carrier, half-wavelength element spacing,
# and a coverage region inscribed in a 30 m equilateral triangle.
scenario = Scenario()
print(f"carrier: {scenario.carrier_frequency / 1e9:.1f} GHz")
print(f"wavelength: {scenario.wavelength:.4f} m")
print(f"element spacing: {scenario.element_spacing:.4f} m")
print(f"region radius: {scenario.region_radius:.4f} m")

# Targets live on a 1 m grid covering the region.
grid = coverage_grid(scenario.region_center, scenario.region_radius, scenario.grid_resolution)
print(f"grid points: {len(grid)}")

# A simple deterministic deployment: the nodes sit on the region circle at
# bearings 90, 210 and 330 degrees, each array along the local tangent. A
# deployment is one (J, 3) array of [x, y, theta] rows.
deployment = midpoint_baseline(scenario)
for index, (x, y, theta) in enumerate(deployment.poses):
    print(f"node {index}: x={x:+.3f} y={y:+.3f} theta={theta:.3f} rad")

# The layout stacks every node's antenna elements into one (N*J, 2) array.
layout = deployment_layout(deployment, scenario)
print(f"antenna elements: {layout.shape[0]}")

# Steering vectors are unit-norm by construction.
a_center = steering_vector(layout, (0.0, 0.0), scenario.wavelength)
print(f"||a(center)|| = {np.linalg.norm(a_center):.15f}")

# Spherical wavefronts separate two targets at the same bearing but
# different ranges - a plane-wave (angle-only) model could not.
near = steering_vector(layout, (2.0, 0.0), scenario.wavelength)
far = steering_vector(layout, (6.0, 0.0), scenario.wavelength)
print(f"|a(2,0)^H a(6,0)| = {abs(np.vdot(near, far)):.4f}  (same bearing, different range)")
