"""Output checks, one function per kind of operation.

Each check takes an operation's output in plain Python/numpy form plus the
reference figures it is judged against, and returns the list of reasons it is
wrong (empty when it passes). No check compares against a stored copy of an
earlier output: every expected value is a property the method must have or a
figure recomputed by `reference`.
"""

from __future__ import annotations

import math

import numpy as np

from reference import TWO_PI, RefScenario

RTOL = 1e-10
"""Relative agreement required between the program and the reference for one
metric value: far above round-off (~1e-15) and far below a real fault."""


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b))


def check_pose_feasible(poses, ref: RefScenario) -> list[str]:
    """Every node inside the region disk and every theta in [0, 2 pi)."""
    problems = []
    for k, (x, y, theta) in enumerate(np.asarray(poses, dtype=float)):
        if not math.hypot(x, y) <= ref.radius * (1.0 + 1e-12):
            problems.append(f"node {k} at ({x:.6g}, {y:.6g}) lies outside the {ref.radius:.6g} m region")
        if not 0.0 <= theta < TWO_PI:
            problems.append(f"node {k} has theta {theta!r} outside [0, 2 pi)")
    return problems


def check_optimize(run: dict, ref: RefScenario, population: int, elites: int, generations: int,
                   baseline_scores: dict[str, float]) -> list[str]:
    """Checks on one `isac-deploy optimize` run.

    `run` holds the parsed summary, the convergence rows
    [(generation, best_fitness), ...] and the optimized poses (J, 3) of a run
    that exited 0. `baseline_scores` are reference scores that the optimum must
    beat strictly.
    """
    problems = []
    summary, rows = run["summary"], run["convergence"]
    best = summary["best_fitness"]
    if [g for g, _ in rows] != list(range(generations + 1)):
        problems.append(f"convergence.csv has generations {[g for g, _ in rows][:3]}..., expected 0..{generations}")
    values = [v for _, v in rows]
    if any(later > earlier for earlier, later in zip(values, values[1:])):
        problems.append("convergence.csv is not non-increasing")
    if not values or values[-1] != best:
        problems.append(f"last convergence row {values[-1] if values else None!r} != best_fitness {best!r}")
    expected = population + generations * (population - elites)
    if summary["evaluations"] != expected:
        problems.append(f"evaluations {summary['evaluations']} != P + G(P - E) = {expected}")
    poses = run["poses"]
    problems += check_pose_feasible(poses, ref)
    if problems:
        return problems
    score, _ = ref.worst_pair(poses)
    if not _close(score, best):
        problems.append(f"best_fitness {best!r} != recomputed worst-pair score {score!r}")
    pair = summary["worst_pair"]
    at_pair = ref.pair_value(poses, pair["point_i"], pair["point_j"])
    if not _close(at_pair, score):
        problems.append(f"worst_pair scores {at_pair!r}, not the maximum {score!r}")
    for name, value in baseline_scores.items():
        if not best < value:
            problems.append(f"best_fitness {best!r} does not beat {name} ({value!r})")
    return problems


def check_map(per_point, max_rmse: float, ref: RefScenario, snr_db: float | None, trials: int,
              expect_trials: int) -> list[str]:
    """Checks on one `rmse_map` result; `snr_db=None` marks a noiseless map."""
    per_point = np.asarray(per_point, dtype=float)
    problems = []
    if per_point.shape != (len(ref.grid),):
        problems.append(f"per-point RMSE has shape {per_point.shape}, expected ({len(ref.grid)},)")
    if trials != expect_trials:
        problems.append(f"trials_per_point {trials} != {expect_trials}")
    if not np.all(np.isfinite(per_point)):
        return problems + ["per-point RMSE is not finite"]
    if max_rmse != float(np.max(per_point)):
        problems.append(f"max_rmse {max_rmse!r} != largest per-point value {float(np.max(per_point))!r}")
    if snr_db is None or snr_db >= 20.0:
        if np.any(per_point != 0.0):
            label = "noiseless" if snr_db is None else f"{snr_db:+g} dB"
            problems.append(f"{int(np.count_nonzero(per_point))} nonzero RMSE values at {label}")
    elif np.any(per_point < 0.0) or np.any(per_point > 2.0 * ref.radius):
        problems.append("an RMSE value lies outside [0, region diameter]")
    return problems


def check_exact_share(program_exact: np.ndarray, reference_exact: np.ndarray, z: float = 4.5) -> list[str]:
    """The program's share of error-free grid points agrees with the reference's.

    Both are pooled over the same deployments but use independent noise, so
    they estimate the same share; the bound is z standard errors of the
    difference of two binomial shares, plus one point for discreteness.
    """
    n = program_exact.size
    p_prog, p_ref = float(np.mean(program_exact)), float(np.mean(reference_exact))
    pooled = 0.5 * (p_prog + p_ref)
    bound = z * math.sqrt(2.0 * pooled * (1.0 - pooled) / n) + 1.0 / n
    if abs(p_prog - p_ref) > bound:
        return [f"error-free share {p_prog:.4f} vs independent {p_ref:.4f} over {n} points (bound {bound:.4f})"]
    return []


def check_metric(value: float, pair, ref: RefScenario, poses, brute_force: float | None) -> list[str]:
    """Checks on one worst-pair report at the scenario's grid.

    `brute_force` is the reference maximum, when this deployment is in the
    checked subset; the value at the reported pair is recomputed always.
    """
    i, j = pair
    n = len(ref.grid)
    if not 0 <= i < j < n:
        return [f"arg_pair {pair!r} is not a pair i < j of {n} grid points"]
    problems = []
    upper = (2.0 * ref.radius) ** ref.alpha
    if not 0.0 <= value <= upper:
        problems.append(f"value {value!r} outside [0, (2r)^alpha = {upper!r}]")
    at_pair = ref.pair_value(poses, ref.grid[i], ref.grid[j])
    if not _close(at_pair, value):
        problems.append(f"value {value!r} != recomputed value {at_pair!r} at its pair {pair}")
    if brute_force is not None and not _close(brute_force, value):
        problems.append(f"value {value!r} != brute-force maximum {brute_force!r}")
    return problems
