"""Experiment drivers behind the CLI: optimize, Monte Carlo comparison,
exponent calibration, SNR sweep, node-count sweep and single-deployment
evaluation. Each returns a ResultBundle: a JSON-ready summary, named tables
for CSV emission, any deployments worth persisting, and the pass/fail run
checks that gate the process exit code.

Seed scheme: every stochastic ingredient derives an independent generator
from the master seed plus a fixed integer key path - (0, ...) for GA runs,
(1, ...) for random-deployment ensembles (one stream per deployment, so
ensembles are prefix-stable in the count), and (2,) for Monte Carlo
localization noise. The localization key is deliberately identical for every
deployment, strategy, and SNR level: paired comparisons then share the same
noise draws (common random numbers), which sharpens orderings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import ExperimentConfig
from .correlation import build_codebook, max_weighted_correlation, pearson
from .ga import decode_chromosome, run_ga
from .geometry import (
    Deployment,
    Scenario,
    deployment_violations,
    midpoint_baseline,
    random_deployment,
)
from .music import rmse_map

_GA_STREAM = 0
_ENSEMBLE_STREAM = 1
_NOISE_STREAM = 2


class InfeasibleDeploymentError(ValueError):
    """An input deployment violates the scenario's feasibility constraints."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("infeasible deployment: " + "; ".join(self.violations))


def derived_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a master seed and an integer key path."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key)))


@dataclass(frozen=True, eq=False)
class Table:
    """One named result series: column names plus homogeneous rows."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self):
        columns = tuple(self.columns)
        rows = tuple(tuple(row) for row in self.rows)
        if any(len(row) != len(columns) for row in rows):
            raise ValueError("every row must have one cell per column")
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True, eq=False)
class ResultBundle:
    """Everything one experiment run produces, ready for serialization."""

    kind: str
    summary: dict
    tables: dict[str, Table]
    deployments: dict[str, Deployment]
    checks: dict[str, bool]


def _max_rho(deployment, scenario) -> float:
    return max_weighted_correlation(build_codebook(deployment, scenario)).max_value


def _max_rmse(deployment, scenario, settings, threads: int) -> float:
    stats = rmse_map(
        deployment,
        scenario,
        settings.trials_per_point,
        derived_rng(settings.seed, _NOISE_STREAM),
        threads=threads,
    )
    return stats.max_rmse


def _random_ensemble(scenario, settings, *key_prefix: int) -> list[Deployment]:
    return [
        random_deployment(scenario, derived_rng(settings.seed, _ENSEMBLE_STREAM, *key_prefix, k))
        for k in range(settings.random_deployment_count)
    ]


def _optimize(config: ExperimentConfig, threads: int, *key_suffix: int):
    scenario = config.scenario if not key_suffix else replace(config.scenario, node_count=key_suffix[0])
    rng = derived_rng(config.experiment.seed, _GA_STREAM, *key_suffix)
    return run_ga(scenario, config.ga, rng, threads=threads)


def run_optimize(config: ExperimentConfig, *, threads: int = 1) -> ResultBundle:
    """GA optimization: convergence trace plus the optimized deployment."""
    scenario, settings = config.scenario, config.experiment
    result = _optimize(config, threads)
    best = decode_chromosome(result.best)
    codebook = build_codebook(best, scenario)
    report = max_weighted_correlation(codebook)
    i, j = report.arg_pair
    trace_rows = tuple((generation, float(value)) for generation, value in enumerate(result.trace))
    summary = {
        "kind": settings.kind,
        "seed": settings.seed,
        "best_fitness": result.best_fitness,
        "evaluations": result.evaluations,
        "generations": config.ga.max_generations,
        "worst_pair": {
            "indices": [i, j],
            "point_i": [float(codebook.grid[i, 0]), float(codebook.grid[i, 1])],
            "point_j": [float(codebook.grid[j, 0]), float(codebook.grid[j, 1])],
        },
    }
    checks = {
        "trace_non_increasing": bool(np.all(np.diff(result.trace) <= 0.0)),
        "trace_length_matches_generations": result.trace.size == config.ga.max_generations + 1,
        "best_deployment_feasible": deployment_violations(best, scenario) == [],
    }
    return ResultBundle(
        kind=settings.kind,
        summary=summary,
        tables={"convergence": Table(("generation", "best_fitness"), trace_rows)},
        deployments={"optimized": best},
        checks=checks,
    )


def run_montecarlo(config: ExperimentConfig, *, threads: int = 1) -> ResultBundle:
    """Optimized / midpoint / random-ensemble comparison scatter.

    Every deployment gets its worst weighted correlation and, when `music` is
    on, its Monte Carlo max RMSE under common random numbers (the RMSE column
    is NaN when music is off). The midpoint baseline row exists only for
    three-node scenarios, where that deployment is defined.
    """
    scenario, settings = config.scenario, config.experiment
    entries: list[tuple[str, Deployment]] = []
    optimized = decode_chromosome(_optimize(config, threads).best)
    entries.append(("optimized", optimized))
    deployments_out = {"optimized": optimized}
    if scenario.node_count == 3:
        baseline = midpoint_baseline(scenario)
        entries.append(("midpoint", baseline))
        deployments_out["midpoint"] = baseline
    entries.extend(
        (f"random-{k}", dep) for k, dep in enumerate(_random_ensemble(scenario, settings))
    )
    rows = []
    rho_by_id = {}
    rmse_by_id = {}
    for name, deployment in entries:
        rho = _max_rho(deployment, scenario)
        rmse = _max_rmse(deployment, scenario, settings, threads) if settings.music else float("nan")
        rho_by_id[name] = rho
        rmse_by_id[name] = rmse
        rows.append((name, rho, rmse))
    random_ids = [name for name, _ in entries if name.startswith("random-")]
    random_rhos = [rho_by_id[name] for name in random_ids]
    gamma = None
    if settings.music and len(random_ids) >= 2:
        gamma = pearson(random_rhos, [rmse_by_id[name] for name in random_ids])
    checks = {
        "optimized_has_lowest_max_rho": rho_by_id["optimized"] <= min(rho_by_id.values()),
    }
    if "midpoint" in rho_by_id:
        checks["midpoint_row_present_once"] = [name for name, _ in entries].count("midpoint") == 1
    if gamma is not None and len(random_ids) >= 100:
        checks["pearson_gamma_positive"] = gamma > 0.0
    summary = {
        "kind": settings.kind,
        "seed": settings.seed,
        "music": settings.music,
        "optimized_max_rho": rho_by_id["optimized"],
        "midpoint_max_rho": rho_by_id.get("midpoint"),
        "random_deployment_count": len(random_ids),
        "random_min_max_rho": min(random_rhos),
        "random_mean_max_rho": float(np.mean(random_rhos)),
        "pearson_gamma": gamma,
    }
    return ResultBundle(
        kind=settings.kind,
        summary=summary,
        tables={"scatter": Table(("deployment_id", "max_rho", "max_rmse"), tuple(rows))},
        deployments=deployments_out,
        checks=checks,
    )


def run_alpha_sweep(config: ExperimentConfig, *, threads: int = 1) -> ResultBundle:
    """Correlation between worst weighted correlation and max RMSE, per alpha.

    One fixed random ensemble is localized once (the RMSE is alpha-free);
    each alpha then reweights the same steering correlations, and the Pearson
    coefficient between the two columns calibrates the exponent.
    """
    scenario, settings = config.scenario, config.experiment
    ensemble = _random_ensemble(scenario, settings)
    rmses = [_max_rmse(dep, scenario, settings, threads) for dep in ensemble]
    rows = []
    gamma_by_alpha = {}
    for alpha in settings.alpha_values:
        at_alpha = replace(scenario, alpha=alpha)
        rhos = [_max_rho(dep, at_alpha) for dep in ensemble]
        gamma = pearson(rhos, rmses)
        gamma_by_alpha[alpha] = gamma
        rows.append((alpha, gamma))
    peak_alpha = max(gamma_by_alpha, key=gamma_by_alpha.get)
    summary = {
        "kind": settings.kind,
        "seed": settings.seed,
        "deployment_count": len(ensemble),
        "peak_alpha": peak_alpha,
        "peak_gamma": gamma_by_alpha[peak_alpha],
    }
    checks = {"gamma_positive_for_all_alpha": all(g > 0.0 for g in gamma_by_alpha.values())}
    return ResultBundle(
        kind=settings.kind,
        summary=summary,
        tables={"gamma": Table(("alpha", "gamma"), tuple(rows))},
        deployments={},
        checks=checks,
    )


def run_snr_sweep(config: ExperimentConfig, *, threads: int = 1) -> ResultBundle:
    """Max RMSE of optimized / midpoint / random strategies across SNR levels.

    All strategies and SNR levels share one localization noise stream, so the
    sweep isolates deployment and SNR effects from Monte Carlo noise.
    """
    scenario, settings = config.scenario, config.experiment
    optimized = decode_chromosome(_optimize(config, threads).best)
    deployments_out = {"optimized": optimized}
    baseline = None
    if scenario.node_count == 3:
        baseline = midpoint_baseline(scenario)
        deployments_out["midpoint"] = baseline
    ensemble = _random_ensemble(scenario, settings)
    rows = []
    curves: dict[str, list[float]] = {"optimized": [], "midpoint": []}
    for snr_db in settings.snr_values_db:
        at_snr = replace(scenario, snr_db=float(snr_db))
        value = _max_rmse(optimized, at_snr, settings, threads)
        curves["optimized"].append(value)
        rows.append((snr_db, "optimized", value))
        if baseline is not None:
            value = _max_rmse(baseline, at_snr, settings, threads)
            curves["midpoint"].append(value)
            rows.append((snr_db, "midpoint", value))
        random_values = [_max_rmse(dep, at_snr, settings, threads) for dep in ensemble]
        rows.append((snr_db, "random-best", min(random_values)))
        rows.append((snr_db, "random-mean", float(np.mean(random_values))))
        rows.append((snr_db, "random-worst", max(random_values)))
    summary = {
        "kind": settings.kind,
        "seed": settings.seed,
        "snr_values_db": list(settings.snr_values_db),
        "lowest_snr_db": min(settings.snr_values_db),
        "highest_snr_db": max(settings.snr_values_db),
    }
    checks = {}
    if baseline is not None:
        low = int(np.argmin(settings.snr_values_db))
        high = int(np.argmax(settings.snr_values_db))
        gap_low = curves["midpoint"][low] - curves["optimized"][low]
        gap_high = curves["midpoint"][high] - curves["optimized"][high]
        summary["gap_at_lowest_snr"] = gap_low
        summary["gap_at_highest_snr"] = gap_high
        checks["optimized_leq_midpoint_at_lowest_snr"] = (
            curves["optimized"][low] <= curves["midpoint"][low]
        )
        checks["gap_narrows_with_snr"] = gap_low >= gap_high
    return ResultBundle(
        kind=settings.kind,
        summary=summary,
        tables={"snr": Table(("snr_db", "strategy", "max_rmse"), tuple(rows))},
        deployments=deployments_out,
        checks=checks,
    )


def run_node_sweep(config: ExperimentConfig, *, threads: int = 1) -> ResultBundle:
    """Optimized-vs-ensemble statistics as the node count varies.

    Per node count: one GA run (its own seed stream) against a fresh random
    ensemble; both metrics are reported, with best/worst/mean over the
    ensemble. The run checks gate only the correlation metric - the RMSE
    ordering is statistical, not guaranteed per seed.
    """
    scenario, settings = config.scenario, config.experiment
    rows = []
    mean_rho = []
    optimized_leq_best = []
    summary_by_count = {}
    deployments_out = {}
    for node_count in settings.node_counts:
        at_count = replace(scenario, node_count=node_count)
        result = _optimize(replace(config, scenario=at_count), threads, node_count)
        optimized = decode_chromosome(result.best)
        deployments_out[f"optimized-j{node_count}"] = optimized
        ensemble = _random_ensemble(at_count, settings, node_count)
        rho_values = [_max_rho(dep, at_count) for dep in ensemble]
        rows.append((node_count, "optimized", "max_rho", result.best_fitness))
        rows.append((node_count, "best", "max_rho", min(rho_values)))
        rows.append((node_count, "worst", "max_rho", max(rho_values)))
        rows.append((node_count, "mean", "max_rho", float(np.mean(rho_values))))
        stats = {
            "optimized_max_rho": result.best_fitness,
            "ensemble_best_max_rho": min(rho_values),
            "ensemble_mean_max_rho": float(np.mean(rho_values)),
        }
        if settings.music:
            opt_rmse = _max_rmse(optimized, at_count, settings, threads)
            rmse_values = [_max_rmse(dep, at_count, settings, threads) for dep in ensemble]
            rows.append((node_count, "optimized", "max_rmse", opt_rmse))
            rows.append((node_count, "best", "max_rmse", min(rmse_values)))
            rows.append((node_count, "worst", "max_rmse", max(rmse_values)))
            rows.append((node_count, "mean", "max_rmse", float(np.mean(rmse_values))))
            stats["optimized_max_rmse"] = opt_rmse
            stats["ensemble_mean_max_rmse"] = float(np.mean(rmse_values))
        mean_rho.append(float(np.mean(rho_values)))
        optimized_leq_best.append(result.best_fitness <= min(rho_values))
        summary_by_count[str(node_count)] = stats
    checks = {
        "optimized_leq_ensemble_best_max_rho": all(optimized_leq_best),
        "mean_max_rho_decreases_with_node_count": all(
            later < earlier for earlier, later in zip(mean_rho, mean_rho[1:])
        ),
    }
    summary = {
        "kind": settings.kind,
        "seed": settings.seed,
        "node_counts": list(settings.node_counts),
        "by_node_count": summary_by_count,
    }
    return ResultBundle(
        kind=settings.kind,
        summary=summary,
        tables={"node_stats": Table(("node_count", "stat", "metric", "value"), tuple(rows))},
        deployments=deployments_out,
        checks=checks,
    )


def run_evaluate(config: ExperimentConfig, deployment: Deployment, *, threads: int = 1) -> ResultBundle:
    """Metrics for one user-supplied deployment (feasibility-checked)."""
    scenario, settings = config.scenario, config.experiment
    violations = deployment_violations(deployment, scenario)
    if violations:
        raise InfeasibleDeploymentError(violations)
    codebook = build_codebook(deployment, scenario)
    report = max_weighted_correlation(codebook)
    i, j = report.arg_pair
    max_rmse = _max_rmse(deployment, scenario, settings, threads) if settings.music else None
    rmse_cell = float("nan") if max_rmse is None else max_rmse
    summary = {
        "kind": settings.kind,
        "seed": settings.seed,
        "music": settings.music,
        "node_count": deployment.node_count,
        "max_rho": report.max_value,
        "max_rmse": max_rmse,
        "worst_pair": {
            "indices": [i, j],
            "point_i": [float(codebook.grid[i, 0]), float(codebook.grid[i, 1])],
            "point_j": [float(codebook.grid[j, 0]), float(codebook.grid[j, 1])],
        },
    }
    table = Table(
        ("max_rho", "worst_pair_i", "worst_pair_j", "max_rmse"),
        ((report.max_value, i, j, rmse_cell),),
    )
    return ResultBundle(
        kind=settings.kind,
        summary=summary,
        tables={"evaluation": table},
        deployments={},
        checks={},
    )


def run_experiment(
    config: ExperimentConfig, *, deployment: Deployment | None = None, threads: int = 1
) -> ResultBundle:
    """Dispatch a config to its experiment driver."""
    kind = config.experiment.kind
    if kind == "evaluate":
        if deployment is None:
            raise ValueError("the evaluate experiment needs a deployment")
        return run_evaluate(config, deployment, threads=threads)
    runners = {
        "optimize": run_optimize,
        "montecarlo": run_montecarlo,
        "alpha-sweep": run_alpha_sweep,
        "snr-sweep": run_snr_sweep,
        "node-sweep": run_node_sweep,
    }
    return runners[kind](config, threads=threads)
