"""Experiment drivers behind the CLI: optimize, Monte Carlo comparison,
exponent calibration, SNR sweep, node-count sweep and single-deployment
evaluation. Each returns a ResultBundle: a JSON-ready summary, named tables
for CSV emission, any deployments worth persisting, and the pass/fail run
checks that gate the process exit code.

The drivers share four helpers. `_deployments` builds the placements a
comparison needs: the named ones ("optimized" from one GA run and, for
three-node scenarios, the "midpoint" baseline) and the random ensemble.
`_spread` gives an ensemble's best/mean/worst, `_max_rho`/`_worst_pair` and
`_rmse_stats` (one `rmse_maps` call per ensemble) give the two metrics, and
`_bundle` puts `kind` and `seed` first in every summary.

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

from .config import ExperimentConfig, ExperimentSettings
from .correlation import CorrelationReport, build_codebook, max_weighted_correlation, pearson
from .ga import run_ga
from .geometry import Deployment, deployment_violations, midpoint_baseline, random_deployment
from .music import LocalizationStats, rmse_maps

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

    summary: dict
    tables: dict[str, Table]
    deployments: dict[str, Deployment]
    checks: dict[str, bool]


def _bundle(settings: ExperimentSettings, summary: dict, tables, deployments, checks) -> ResultBundle:
    """ResultBundle whose summary starts with the experiment kind and seed."""
    summary = {"kind": settings.kind, "seed": settings.seed, **summary}
    return ResultBundle(summary, tables, deployments, checks)


def _max_rho(deployment, scenario) -> float:
    return max_weighted_correlation(build_codebook(deployment, scenario)).max_value


def _rmse_stats(deployments, scenario, settings, threads: int) -> list[LocalizationStats]:
    rng = derived_rng(settings.seed, _NOISE_STREAM)
    return rmse_maps(deployments, scenario, settings.trials_per_point, rng, threads=threads)


def _spread(values) -> dict[str, float]:
    """Best (lowest), mean and worst (highest) of an ensemble's metric values."""
    return {"best": min(values), "mean": float(np.mean(values)), "worst": max(values)}


def _random_ensemble(scenario, settings, *key_prefix: int) -> list[Deployment]:
    return [
        random_deployment(scenario, derived_rng(settings.seed, _ENSEMBLE_STREAM, *key_prefix, k))
        for k in range(settings.random_deployment_count)
    ]


def _deployments(config: ExperimentConfig, *key: int) -> tuple[dict[str, Deployment], list[Deployment]]:
    """Named deployments and the random ensemble of one scenario.

    The named ones are "optimized" (the best of one GA run) and, for
    three-node scenarios, where it is defined, the "midpoint" baseline. `key`
    extends the GA and ensemble stream keys (node-sweep passes the node count).
    """
    scenario, settings = config.scenario, config.experiment
    result = run_ga(scenario, config.ga, derived_rng(settings.seed, _GA_STREAM, *key))
    named = {"optimized": result.best}
    if scenario.node_count == 3:
        named["midpoint"] = midpoint_baseline(scenario)
    return named, _random_ensemble(scenario, settings, *key)


def _worst_pair(deployment, scenario) -> tuple[CorrelationReport, dict]:
    """Worst-pair report of a deployment and its `summary.json` entry."""
    codebook = build_codebook(deployment, scenario)
    report = max_weighted_correlation(codebook)
    point_i, point_j = codebook.grid[list(report.arg_pair)].tolist()
    return report, {"indices": list(report.arg_pair), "point_i": point_i, "point_j": point_j}


def run_optimize(config: ExperimentConfig) -> ResultBundle:
    """GA optimization: convergence trace plus the optimized deployment."""
    scenario, settings = config.scenario, config.experiment
    result = run_ga(scenario, config.ga, derived_rng(settings.seed, _GA_STREAM))
    _, worst_pair = _worst_pair(result.best, scenario)
    summary = {
        "best_fitness": result.best_fitness,
        "evaluations": result.evaluations,
        "fitness_cache_hits": result.cache_hits,
        "generations": config.ga.max_generations,
        "worst_pair": worst_pair,
    }
    checks = {
        "trace_non_increasing": bool(np.all(np.diff(result.trace) <= 0.0)),
        "trace_length_matches_generations": result.trace.size == config.ga.max_generations + 1,
        "best_deployment_feasible": deployment_violations(result.best, scenario) == [],
    }
    trace_rows = [(generation, float(value)) for generation, value in enumerate(result.trace)]
    tables = {"convergence": Table(("generation", "best_fitness"), trace_rows)}
    return _bundle(settings, summary, tables, {"optimized": result.best}, checks)


def run_montecarlo(config: ExperimentConfig, *, threads: int = 1) -> ResultBundle:
    """Optimized / midpoint / random-ensemble comparison scatter.

    Every deployment gets its worst weighted correlation and, when `music` is
    on, its Monte Carlo max RMSE under common random numbers (the RMSE column
    is NaN when music is off). The midpoint baseline row exists only for
    three-node scenarios, where that deployment is defined.
    """
    scenario, settings = config.scenario, config.experiment
    named, ensemble = _deployments(config)
    entries = {**named, **{f"random-{k}": dep for k, dep in enumerate(ensemble)}}
    rmses = [float("nan")] * len(entries)
    if settings.music:
        rmses = [stats.max_rmse for stats in _rmse_stats(list(entries.values()), scenario, settings, threads)]
    rows = [(name, _max_rho(dep, scenario), rmse) for (name, dep), rmse in zip(entries.items(), rmses)]
    rho_by_id = {name: rho for name, rho, _ in rows}
    random_rows = rows[len(named):]
    random_rhos = [rho for _, rho, _ in random_rows]
    gamma = None
    if settings.music and len(random_rows) >= 2:
        gamma = pearson(random_rhos, [rmse for _, _, rmse in random_rows])
    checks = {"optimized_has_lowest_max_rho": rho_by_id["optimized"] <= min(rho_by_id.values())}
    if "midpoint" in rho_by_id:
        checks["midpoint_row_present_once"] = [row[0] for row in rows].count("midpoint") == 1
    if gamma is not None and len(random_rows) >= 100:
        checks["pearson_gamma_positive"] = gamma > 0.0
    random_spread = _spread(random_rhos)
    summary = {
        "music": settings.music,
        "optimized_max_rho": rho_by_id["optimized"],
        "midpoint_max_rho": rho_by_id.get("midpoint"),
        "random_deployment_count": len(random_rows),
        "random_min_max_rho": random_spread["best"],
        "random_mean_max_rho": random_spread["mean"],
        "pearson_gamma": gamma,
    }
    tables = {"scatter": Table(("deployment_id", "max_rho", "max_rmse"), rows)}
    return _bundle(settings, summary, tables, named, checks)


def run_alpha_sweep(config: ExperimentConfig, *, threads: int = 1) -> ResultBundle:
    """Correlation between worst weighted correlation and max RMSE, per alpha.

    One fixed random ensemble is localized once (the RMSE is alpha-free);
    each alpha then reweights the same steering correlations, and the Pearson
    coefficient between the two columns calibrates the exponent.
    """
    scenario, settings = config.scenario, config.experiment
    ensemble = _random_ensemble(scenario, settings)
    rmses = [stats.max_rmse for stats in _rmse_stats(ensemble, scenario, settings, threads)]
    gamma_by_alpha = {}
    for alpha in settings.alpha_values:
        weighted = replace(scenario, alpha=alpha)
        gamma_by_alpha[alpha] = pearson([_max_rho(dep, weighted) for dep in ensemble], rmses)
    peak_alpha = max(gamma_by_alpha, key=gamma_by_alpha.get)
    summary = {
        "deployment_count": len(ensemble),
        "peak_alpha": peak_alpha,
        "peak_gamma": gamma_by_alpha[peak_alpha],
    }
    checks = {"gamma_positive_for_all_alpha": all(g > 0.0 for g in gamma_by_alpha.values())}
    tables = {"gamma": Table(("alpha", "gamma"), gamma_by_alpha.items())}
    return _bundle(settings, summary, tables, {}, checks)


def run_snr_sweep(config: ExperimentConfig, *, threads: int = 1) -> ResultBundle:
    """Max RMSE of optimized / midpoint / random strategies across SNR levels.

    All strategies and SNR levels share one localization noise stream, so the
    sweep isolates deployment and SNR effects from Monte Carlo noise.

    The two gap checks compare optimized with midpoint at the check level: the
    lowest configured SNR at which the midpoint's spatial-mean RMSE is below
    `grid_resolution`, i.e. where MUSIC has left its outlier regime. Below it
    every layout's worst point is set by outliers, not by the deployment. If
    no level qualifies, the summary says so and both checks fail.
    """
    scenario, settings = config.scenario, config.experiment
    named, ensemble = _deployments(config)
    rows = []
    series: dict[str, list[LocalizationStats]] = {name: [] for name in named}
    for snr_db in settings.snr_values_db:
        at_snr = replace(scenario, snr_db=float(snr_db))
        maps = _rmse_stats([*named.values(), *ensemble], at_snr, settings, threads)
        for name, stats in zip(named, maps):
            series[name].append(stats)
            rows.append((snr_db, name, stats.max_rmse))
        spread = _spread([stats.max_rmse for stats in maps[len(named):]])
        rows.extend((snr_db, f"random-{stat}", value) for stat, value in spread.items())
    curves = {name: [stats.max_rmse for stats in by_level] for name, by_level in series.items()}
    summary = {
        "snr_values_db": list(settings.snr_values_db),
        "lowest_snr_db": min(settings.snr_values_db),
        "highest_snr_db": max(settings.snr_values_db),
    }
    checks = {}
    if "midpoint" in curves:
        levels = settings.snr_values_db
        gaps = [mid - opt for mid, opt in zip(curves["midpoint"], curves["optimized"])]
        high = int(np.argmax(levels))
        midpoint_means = [float(np.mean(stats.per_point_rmse)) for stats in series["midpoint"]]
        check = min(
            (k for k, mean in enumerate(midpoint_means) if mean < scenario.grid_resolution),
            key=levels.__getitem__,
            default=None,
        )
        summary["gap_at_lowest_snr"] = gaps[int(np.argmin(levels))]
        summary["gap_at_highest_snr"] = gaps[high]
        summary["midpoint_mean_rmse"] = midpoint_means
        summary["check_snr_db"] = None if check is None else levels[check]
        if check is None:
            summary["check_snr_error"] = (
                f"no SNR level has a midpoint spatial-mean RMSE below grid_resolution "
                f"{scenario.grid_resolution} m, so the gap checks fail"
            )
        else:
            summary["gap_at_check_snr"] = gaps[check]
        checks["optimized_leq_midpoint_at_lowest_snr"] = (
            check is not None and curves["optimized"][check] <= curves["midpoint"][check]
        )
        checks["gap_narrows_with_snr"] = check is not None and gaps[check] >= gaps[high]
    tables = {"snr": Table(("snr_db", "strategy", "max_rmse"), rows)}
    return _bundle(settings, summary, tables, named, checks)


def run_node_sweep(config: ExperimentConfig, *, threads: int = 1) -> ResultBundle:
    """Optimized-vs-ensemble statistics as the node count varies.

    Per node count: one GA run (its own seed stream) against a fresh random
    ensemble; both metrics are reported, with best/worst/mean over the
    ensemble. The run checks gate only the correlation metric - the RMSE
    ordering is statistical, not guaranteed per seed.
    """
    scenario, settings = config.scenario, config.experiment
    rows = []
    per_count = []
    deployments_out = {}
    for node_count in settings.node_counts:
        at_count = replace(scenario, node_count=node_count)
        named, ensemble = _deployments(replace(config, scenario=at_count), node_count)
        optimized = deployments_out[f"optimized-j{node_count}"] = named["optimized"]
        compared = [optimized, *ensemble]
        metrics = {"max_rho": [_max_rho(dep, at_count) for dep in compared]}
        if settings.music:
            metrics["max_rmse"] = [stats.max_rmse for stats in _rmse_stats(compared, at_count, settings, threads)]
        stats = {}
        for metric, (value, *ensemble_values) in metrics.items():
            spread = {"optimized": value, **_spread(ensemble_values)}
            for stat in ("optimized", "best", "worst", "mean"):
                rows.append((node_count, stat, metric, spread[stat]))
            stats[f"optimized_{metric}"] = value
            if metric == "max_rho":
                stats["ensemble_best_max_rho"] = spread["best"]
            stats[f"ensemble_mean_{metric}"] = spread["mean"]
        per_count.append(stats)
    by_count = dict(zip(settings.node_counts, per_count))
    ascending = [by_count[j]["ensemble_mean_max_rho"] for j in sorted(by_count)]
    checks = {
        "optimized_leq_ensemble_best_max_rho": all(
            stats["optimized_max_rho"] <= stats["ensemble_best_max_rho"] for stats in per_count
        ),
        "mean_max_rho_decreases_with_node_count": all(
            later < earlier for earlier, later in zip(ascending, ascending[1:])
        ),
    }
    summary = {
        "node_counts": list(settings.node_counts),
        "by_node_count": {str(j): stats for j, stats in by_count.items()},
    }
    tables = {"node_stats": Table(("node_count", "stat", "metric", "value"), rows)}
    return _bundle(settings, summary, tables, deployments_out, checks)


def run_evaluate(config: ExperimentConfig, deployment: Deployment, *, threads: int = 1) -> ResultBundle:
    """Metrics for one user-supplied deployment (feasibility-checked)."""
    scenario, settings = config.scenario, config.experiment
    violations = deployment_violations(deployment, scenario)
    if violations:
        raise InfeasibleDeploymentError(violations)
    report, worst_pair = _worst_pair(deployment, scenario)
    max_rmse = _rmse_stats([deployment], scenario, settings, threads)[0].max_rmse if settings.music else None
    rmse_cell = float("nan") if max_rmse is None else max_rmse
    summary = {
        "music": settings.music,
        "node_count": deployment.node_count,
        "max_rho": report.max_value,
        "max_rmse": max_rmse,
        "worst_pair": worst_pair,
    }
    table = Table(
        ("max_rho", "worst_pair_i", "worst_pair_j", "max_rmse"),
        ((report.max_value, *report.arg_pair, rmse_cell),),
    )
    return _bundle(settings, summary, {"evaluation": table}, {}, {})


def run_experiment(
    config: ExperimentConfig, *, deployment: Deployment | None = None, threads: int = 1
) -> ResultBundle:
    """Dispatch a config to its experiment driver; `threads` reaches only the
    drivers that run a Monte Carlo."""
    kind = config.experiment.kind
    if kind == "optimize":
        return run_optimize(config)
    if kind == "evaluate":
        if deployment is None:
            raise ValueError("the evaluate experiment needs a deployment")
        return run_evaluate(config, deployment, threads=threads)
    runners = {
        "montecarlo": run_montecarlo,
        "alpha-sweep": run_alpha_sweep,
        "snr-sweep": run_snr_sweep,
        "node-sweep": run_node_sweep,
    }
    return runners[kind](config, threads=threads)
